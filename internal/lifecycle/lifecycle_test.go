package lifecycle

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/gateway"
	"psigene/internal/httpx"
	"psigene/internal/traffic"
)

// testGate is a fast, lenient gate config for unit tests: small corpora,
// floors the shared trained model comfortably clears.
func testGate() GateConfig {
	return GateConfig{
		MinTPR: 0.80, MaxFPR: 0.05,
		AttackTests: 150, BenignTests: 300,
		Seed: 5, ProbeSamples: 100, ProbeSeed: 9,
	}
}

var (
	trainOnce   sync.Once
	trainModel  *core.Model
	trainErr    error
	bootAttacks []httpx.Request
	bootBenign  []httpx.Request
)

// corpora returns the shared bootstrap corpora; the model trained from
// them is cached for tests that only need a detector.
func corpora(t *testing.T) ([]httpx.Request, []httpx.Request) {
	t.Helper()
	trainOnce.Do(func() {
		bootAttacks = attackgen.NewGenerator(attackgen.CrawlProfile(), 11).Requests(600)
		bootBenign = traffic.NewGenerator(12).Requests(800)
		trainModel, trainErr = core.Train(bootAttacks, bootBenign, core.Config{})
	})
	if trainErr != nil {
		t.Fatalf("training shared model: %v", trainErr)
	}
	return bootAttacks, bootBenign
}

func sharedModel(t *testing.T) *core.Model {
	t.Helper()
	corpora(t)
	return trainModel
}

// neuteredClone returns a detector-equivalent copy of m whose signature
// thresholds are unreachable, so it never alerts — a structurally valid
// but behaviorally broken candidate.
func neuteredClone(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "clone")
	if _, err := m.SaveArtifact(dir, core.Manifest{Version: "clone"}); err != nil {
		t.Fatalf("clone save: %v", err)
	}
	c, _, err := core.LoadArtifact(dir)
	if err != nil {
		t.Fatalf("clone load: %v", err)
	}
	for _, s := range c.Signatures {
		s.Threshold = 1.1
	}
	return c
}

func echoUpstream(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok:%s", r.URL.Path)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestStoreVersioningAndImmutability(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	if cur, _ := s.Current(); cur != "" {
		t.Fatalf("empty store current %q", cur)
	}
	v, err := s.NextVersion()
	if err != nil || v != "v000001" {
		t.Fatalf("NextVersion: %q, %v", v, err)
	}

	m := sharedModel(t)
	man, err := s.SaveCandidate(m, core.Manifest{Version: v, CorpusFingerprint: "cafe"})
	if err != nil {
		t.Fatalf("SaveCandidate: %v", err)
	}
	if man.ModelSHA256 == "" || man.Signatures != len(m.Signatures) {
		t.Fatalf("manifest not filled: %+v", man)
	}
	// Artifacts are immutable: same version cannot be rewritten.
	if _, err := s.SaveCandidate(m, core.Manifest{Version: v}); err == nil {
		t.Fatal("overwriting an artifact must fail")
	}
	if v2, _ := s.NextVersion(); v2 != "v000002" {
		t.Fatalf("NextVersion after save: %q", v2)
	}

	// CURRENT only points at stored versions, atomically.
	if err := s.SetCurrent("v000099"); err == nil {
		t.Fatal("promoting a missing version must fail")
	}
	if err := s.SetCurrent(v); err != nil {
		t.Fatalf("SetCurrent: %v", err)
	}
	cur, err := s.Current()
	if err != nil || cur != v {
		t.Fatalf("Current: %q, %v", cur, err)
	}

	got, gotMan, err := s.Load(v)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if gotMan.ModelSHA256 != man.ModelSHA256 || len(got.Signatures) != len(m.Signatures) {
		t.Fatal("loaded artifact does not match saved")
	}
}

func TestGateVerdicts(t *testing.T) {
	m := sharedModel(t)
	rep := RunGate(m, "v000001", testGate())
	if !rep.Pass {
		t.Fatalf("healthy model failed gate: %v", rep.Reasons)
	}
	if len(rep.Tools) != 3 || rep.DeadSignatures != 0 {
		t.Fatalf("report %+v", rep)
	}

	bad := neuteredClone(t, m)
	brep := RunGate(bad, "v000002", testGate())
	if brep.Pass {
		t.Fatal("neutered model passed gate")
	}
	joined := strings.Join(brep.Reasons, "; ")
	if !strings.Contains(joined, "TPR") {
		t.Fatalf("reasons %q do not mention the TPR floor", joined)
	}

	// A subsumed regression cap of 0 with a model audited above it fails
	// the gate only via the explicit cap — exercised through MaxSubsumed
	// when the audit reports any; with a healthy model the gate stays
	// green either way.
	zero := 0
	cfg := testGate()
	cfg.MaxSubsumed = &zero
	crep := RunGate(m, "v000001", cfg)
	if crep.Subsumed > 0 && crep.Pass {
		t.Fatal("subsumed cap not enforced")
	}
	if crep.Subsumed == 0 && !crep.Pass {
		t.Fatalf("healthy model under cap failed: %v", crep.Reasons)
	}
}

func TestRunnerPromotesWithoutGateway(t *testing.T) {
	attacks, benign := corpora(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	r := NewRunner(store, GenSource{Profile: attackgen.CrawlProfile(), Seed: 400, N: 120}, RunnerConfig{Gate: testGate()})

	if _, err := r.Round(nil); err == nil {
		t.Fatal("Round before Bootstrap must fail")
	}
	man, err := r.Bootstrap(attacks, benign, core.Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if man.Version != "v000001" || man.CorpusFingerprint == "" {
		t.Fatalf("bootstrap manifest %+v", man)
	}
	if _, err := r.Bootstrap(attacks, benign, core.Config{}); err == nil {
		t.Fatal("double bootstrap must fail")
	}

	d, err := r.Round(nil)
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if d.Action != "promoted" || d.Version != "v000002" || d.Parent != "v000001" {
		t.Fatalf("decision %+v", d)
	}
	if cur, _ := store.Current(); cur != "v000002" {
		t.Fatalf("current %q after promotion", cur)
	}
	if d.FreshSamples == 0 || d.Gate == nil || !d.Gate.Pass {
		t.Fatalf("decision details %+v", d)
	}

	// The journal has one line per round.
	raw, err := os.ReadFile(store.DecisionLog())
	if err != nil {
		t.Fatalf("decision log: %v", err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 1 {
		t.Fatalf("decision log has %d lines, want 1", lines)
	}
}

func TestRunnerCanaryRejectionKeepsServing(t *testing.T) {
	attacks, benign := corpora(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	cfg := RunnerConfig{Gate: testGate()}
	// An unreachable sample floor forces canary rejection regardless of
	// agreement.
	cfg.Canary.MinSampled = 1 << 40
	r := NewRunner(store, GenSource{Profile: attackgen.CrawlProfile(), Seed: 500, N: 120}, cfg)
	if _, err := r.Bootstrap(attacks, benign, core.Config{}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	m, man, err := r.CurrentDetector()
	if err != nil {
		t.Fatalf("CurrentDetector: %v", err)
	}
	up := echoUpstream(t)
	gw, err := gateway.New(up.URL, m, gateway.Options{
		Client: up.Client(), ModelVersion: man.Version, ModelSHA256: man.ModelSHA256,
	})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	r.AttachGateway(gw)

	d, err := r.Round(func() error {
		ReplayMix(gw, 40, 10, 71)
		return nil
	})
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if d.Action != "canary-rejected" {
		t.Fatalf("action %q, want canary-rejected", d.Action)
	}
	if d.Canary == nil || d.Canary.Sampled == 0 {
		t.Fatalf("canary report %+v", d.Canary)
	}
	if snap := gw.Snapshot(); snap.ModelVersion != "v000001" {
		t.Fatalf("serving %q after canary rejection, want v000001", snap.ModelVersion)
	}
	if cur, _ := store.Current(); cur != "v000001" {
		t.Fatalf("current %q after canary rejection", cur)
	}
	if _, ok := gw.CanaryReport(); ok {
		t.Fatal("canary still active after rejection")
	}
}

func TestRollbackRequiresParent(t *testing.T) {
	attacks, benign := corpora(t)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	r := NewRunner(store, GenSource{Profile: attackgen.CrawlProfile(), Seed: 600, N: 100}, RunnerConfig{Gate: testGate()})
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback on empty store must fail")
	}
	if _, err := r.Bootstrap(attacks, benign, core.Config{}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback of the root version must fail")
	}
}

func TestReplayMixDeterministicAndComplete(t *testing.T) {
	blocked := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Stand-in detector: block anything with a quote.
		if strings.Contains(r.URL.RawQuery, "%27") || strings.Contains(r.URL.RawQuery, "'") {
			blocked++
			w.WriteHeader(http.StatusForbidden)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	a := ReplayMix(h, 30, 10, 7)
	b := ReplayMix(h, 30, 10, 7)
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("mix lengths %d/%d, want 40", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if blocked == 0 {
		t.Fatal("attack stream produced no blockable requests")
	}
}

func TestCrawlSourceCheckpointPersists(t *testing.T) {
	// Covered in depth by the chaos test; here just the happy path: a
	// clean portal yields samples and a Done checkpoint.
	srv := startPortal(t, 16, 77, cleanFaults())
	dir := t.TempDir()
	src := &CrawlSource{
		URL:            srv.URL,
		Options:        crawlOptions(srv),
		CheckpointPath: filepath.Join(dir, "cp.json"),
	}
	samples, err := src.Fetch(1)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples from clean portal")
	}
	if _, err := os.Stat(src.CheckpointPath); err != nil {
		t.Fatalf("checkpoint not persisted: %v", err)
	}
}
