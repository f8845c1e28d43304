package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The trainer child is the bench binary itself; under `go test` that is the
// test binary, so it has to answer to the same role flag.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-trainer" {
		if err := trainerRole(os.Args[2]); err != nil {
			os.Stderr.WriteString("bench trainer: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSmoke drives a real psigened child end to end on every workload, at
// smoke scale with tracing on: every response must match the oracle, the
// daemon's counters must match the driver's, every metric must be
// produced, and the span file must link every layer. No timing assertions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs psigened")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		buildDir: t.TempDir(), seed: 5, seconds: 1.5,
		trace: true, smoke: true, conns: connsPerCPU * runtime.NumCPU(),
	}
	if cfg.daemonBin, err = buildDaemon(root, cfg.buildDir); err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	for _, w := range workloads {
		res, err := runWorkload(cfg, w, tr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.ErrorRate != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v error_rate=%v attempted=%d first failure: %s", w.name, res.Correct, res.ErrorRate, res.Attempted, res.FirstFailure)
		}
		if len(res.EndToEnd) != len(endToEndMetrics) || len(res.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics", w.name, len(res.EndToEnd), len(res.PerLayer))
		}
		for name, m := range res.EndToEnd {
			// The 600/1,500 smoke model may miss the one attack a
			// 32-request pool holds; the full-scale model never scores 0.
			if m.Value <= 0 && name != "detect_tpr" {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
			}
		}
	}
	path := filepath.Join(cfg.buildDir, "smoke.trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := readJSON(path, &file); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	names := map[string]bool{}
	for _, s := range file.Spans {
		byID[s.ID] = s
		names[s.Name] = true
	}
	for _, s := range file.Spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
		}
	}
	for _, want := range []string{
		"normalize", "acmatch.scan", "feature.sparse", "core.score", "core.inspect", "admission.check",
		"gateway.serve", "fleet.serve", "psigened.start", "psigened.request", "serve.window",
		"attackgen.generate", "traffic.generate", "core.train", "core.save", "core.load", "ids.evaluate",
		"normalize.corpus", "feature.featurize", "cluster.run",
	} {
		if !names[want] {
			t.Errorf("no span named %q", want)
		}
	}
	if p := byID[byID[firstNamed(file.Spans, "acmatch.scan").Parent].Parent]; p.Name != "core.inspect" {
		t.Errorf("acmatch.scan's grandparent is %q, want core.inspect", p.Name)
	}
}

func firstNamed(spans []span, name string) span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}
