package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json and the tables in this package name the same workloads
// and metrics with the same units, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%q) vs %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the package", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the package", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

func writeRunFile(t *testing.T, dir, name string, capacity float64, fp int) string {
	t.Helper()
	values := map[string]float64{}
	for _, d := range endToEndMetrics {
		values[d.name] = 100
	}
	values["capacity_rps"] = capacity
	res := &workloadResult{Workload: "serve-benign", Correct: true, Attempted: 10}
	res.EndToEnd, _ = collect(endToEndMetrics, values)
	res.Detect.FP = fp
	path := filepath.Join(dir, name)
	raw := mustJSON(t, runFile{Seed: 1, Results: []*workloadResult{res}})
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join("..", "BENCHMARK.json")
	base := writeRunFile(t, dir, "a.json", 1000, 3)
	var out bytes.Buffer
	if err := compareFiles(spec, base, writeRunFile(t, dir, "same.json", 990, 3), &out); err != nil {
		t.Errorf("a 1%% capacity drop is inside every bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(spec, base, writeRunFile(t, dir, "slow.json", 500, 3), &out); err == nil || !strings.Contains(out.String(), "OUT OF BOUND") {
		t.Errorf("a halved capacity passed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(spec, base, writeRunFile(t, dir, "fp.json", 1000, 4), &out); err == nil || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("a changed confusion matrix on the same seed passed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(spec, writeRunFile(t, dir, "slow2.json", 500, 3), base, &out); err != nil {
		t.Errorf("an improvement was flagged: %v\n%s", err, out.String())
	}
}
