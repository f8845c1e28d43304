package gateway

// Chaos suite: the gateway in front of a deliberately hostile upstream —
// the demo webapp wrapped in faultify's deterministic injector. Fault
// schedules are a pure function of the seed and the request key, requests
// are driven in a fixed order, and the breaker is request-count based, so
// every status sequence here is bit-identical run to run. No test sleeps
// on the wall clock; Hang faults resolve through the gateway's short
// upstream deadline (the convention set by internal/crawl's chaos tests).

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"psigene/internal/attackgen"
	"psigene/internal/faultify"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/ruleset"
	"psigene/internal/traffic"
	"psigene/internal/webapp"
)

// chaosWorkload is a fixed mixed request stream: benign browsing plus
// sqlmap-style injections, as URL targets for the proxy.
func chaosWorkload(n int) []string {
	reqs := attackgen.NewGenerator(attackgen.SQLMapProfile(), 21).Requests(n / 2)
	reqs = append(reqs, traffic.NewGenerator(22).Requests(n-n/2)...)
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.URL()
	}
	return out
}

func snortEngine(t *testing.T) *ids.RuleEngine {
	t.Helper()
	e, err := ids.NewRuleEngine(ruleset.Snort(), ids.Options{})
	if err != nil {
		t.Fatalf("NewRuleEngine: %v", err)
	}
	return e
}

// chaosUpstream wraps the demo webapp in a fault injector at the given
// total rate, spread uniformly over all fault classes.
func chaosUpstream(seed int64, rate float64) (*httptest.Server, *faultify.Injector) {
	in := faultify.New(faultify.Config{Seed: seed, Rates: faultify.Uniform(rate)})
	srv := httptest.NewServer(in.Wrap(webapp.New(50)))
	return srv, in
}

// chaosOptions: a short real upstream deadline so Hang faults resolve in
// milliseconds, everything else at production defaults.
func chaosOptions() Options {
	return Options{UpstreamTimeout: 150 * time.Millisecond}
}

// allowedStatuses is every verdict the gateway may hand a client under
// chaos: app responses (200/404/500 from the webapp, 429 from RateLimit
// faults), gateway verdicts (403 blocked, 502 upstream failure, 503
// shed/breaker, 504 budget), and nothing else.
var allowedStatuses = map[int]bool{
	200: true, 404: true, 429: true, 403: true,
	500: true, 502: true, 503: true, 504: true,
}

// driveSequential runs the workload in order and returns the status codes.
func driveSequential(t *testing.T, g *Gateway, targets []string) []int {
	t.Helper()
	out := make([]int, len(targets))
	for i, target := range targets {
		w := get(g, target)
		if w.Code == 0 {
			t.Fatalf("request %d (%s): no verdict", i, target)
		}
		if !allowedStatuses[w.Code] {
			t.Fatalf("request %d (%s): unexpected status %d", i, target, w.Code)
		}
		out[i] = w.Code
	}
	return out
}

// TestChaosFaultStormDeterministic is the headline acceptance test: a 20%
// fault-rate upstream (500 storms, rate limits, hangs, resets, truncated
// and garbled bodies) behind the scoring proxy. Every request gets a
// verdict, the process never crashes, and two runs from the same seed
// produce bit-identical status sequences.
func TestChaosFaultStormDeterministic(t *testing.T) {
	targets := chaosWorkload(200)
	run := func() ([]int, Snapshot) {
		srv, _ := chaosUpstream(99, 0.20)
		defer srv.Close()
		g := mustGateway(t, srv.URL, snortEngine(t), chaosOptions())
		codes := driveSequential(t, g, targets)
		return codes, g.Snapshot()
	}

	codes, snap := run()
	if snap.Total != int64(len(targets)) {
		t.Fatalf("saw %d requests, want %d", snap.Total, len(targets))
	}
	// The storm must actually have hit all three visible failure paths:
	// app-level errors pass through, transport faults become 502s, and
	// the detector blocks part of the injection half.
	counts := map[int]int{}
	for _, c := range codes {
		counts[c]++
	}
	if counts[502] == 0 {
		t.Fatal("no upstream transport faults surfaced; injector not engaged")
	}
	if snap.Blocked == 0 {
		t.Fatal("no injections blocked; detector not engaged")
	}
	if snap.UpstreamErrors == 0 {
		t.Fatal("upstream errors not counted")
	}
	t.Logf("status mix over %d requests: %v (blocked=%d upstreamErrors=%d breakerRejected=%d)",
		len(targets), counts, snap.Blocked, snap.UpstreamErrors, snap.BreakerRejected)

	again, _ := run()
	for i := range codes {
		if codes[i] != again[i] {
			t.Fatalf("request %d: status %d vs %d across identical runs", i, codes[i], again[i])
		}
	}
}

// flakyDetector panics on every kth inspection — a deterministic stand-in
// for a signature with latent corrupt state.
type flakyDetector struct {
	inner ids.Detector
	k     int
	n     int
}

func (d *flakyDetector) Name() string { return "flaky" }

func (d *flakyDetector) Inspect(req httpx.Request) ids.Verdict {
	d.n++
	if d.n%d.k == 0 {
		panic(fmt.Sprintf("flaky detector: inspection %d", d.n))
	}
	return d.inner.Inspect(req)
}

// TestChaosScoringPanicsContained: a detector that panics every 7th
// request, under both policies, against a faulting upstream. The gateway
// answers every request and the panic count is exact.
func TestChaosScoringPanicsContained(t *testing.T) {
	targets := chaosWorkload(140)
	for _, tc := range []struct {
		policy   Policy
		degraded int // expected status for unscorable requests
	}{
		{FailOpen, 0}, {FailClosed, http.StatusForbidden},
	} {
		srv, _ := chaosUpstream(7, 0.20)
		g := mustGateway(t, srv.URL, &flakyDetector{inner: snortEngine(t), k: 7}, Options{
			UpstreamTimeout: 150 * time.Millisecond, Policy: tc.policy,
		})
		driveSequential(t, g, targets)
		snap := g.Snapshot()
		if want := int64(len(targets) / 7); snap.ScorePanics != want {
			t.Fatalf("%s: %d panics contained, want %d", tc.policy, snap.ScorePanics, want)
		}
		if tc.policy == FailClosed && snap.FailedClosed != snap.ScorePanics {
			t.Fatalf("fail-closed: %d rejections for %d panics", snap.FailedClosed, snap.ScorePanics)
		}
		if tc.policy == FailOpen && snap.FailedOpen != snap.ScorePanics {
			t.Fatalf("fail-open: %d degraded forwards for %d panics", snap.FailedOpen, snap.ScorePanics)
		}
		srv.Close()
	}
}

// TestChaosReloadDuringStorm interleaves hot reloads with the fault storm:
// good reloads advance the generation; corrupt reloads are rejected and
// the previous detector keeps serving without missing a request.
func TestChaosReloadDuringStorm(t *testing.T) {
	targets := chaosWorkload(120)
	srv, _ := chaosUpstream(13, 0.20)
	defer srv.Close()
	g := mustGateway(t, srv.URL, snortEngine(t), chaosOptions())

	// One model dir holding both pushes: a copy of the good artifact and
	// one whose model.json fails its hash. The admin surface only accepts
	// names inside it.
	modelDir := t.TempDir()
	copyArtifact(t, modelDir, "good", false)
	copyArtifact(t, modelDir, "corrupt", true)
	admin := g.Admin(AdminConfig{ModelDir: modelDir})

	wantGen := uint64(1)
	for i, target := range targets {
		if i > 0 && i%30 == 0 {
			// Alternate good and corrupt pushes mid-storm.
			w := get(g, target) // keep traffic flowing around the reload
			if !allowedStatuses[w.Code] {
				t.Fatalf("request %d: status %d", i, w.Code)
			}
			name := "good"
			if (i/30)%2 == 0 {
				name = "corrupt"
			}
			rw := adminReload(admin, name)
			if name == "good" {
				if rw.Code != http.StatusOK {
					t.Fatalf("good reload at %d: %d: %s", i, rw.Code, rw.Body.String())
				}
				wantGen++
			} else if rw.Code != http.StatusInternalServerError {
				t.Fatalf("corrupt reload at %d: %d, want 500", i, rw.Code)
			}
		}
		w := get(g, target)
		if !allowedStatuses[w.Code] {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	if _, gen := g.Detector(); gen != wantGen {
		t.Fatalf("final generation %d, want %d", gen, wantGen)
	}
	snap := g.Snapshot()
	if snap.Reloads == 0 || snap.ReloadFailures == 0 {
		t.Fatalf("reload mix not exercised: %+v", snap)
	}
}

// TestChaosOverloadBurst saturates a MaxInFlight=2 gateway with 16
// concurrent requests against an all-hanging upstream: admitted requests
// resolve through the 150ms deadline, the rest shed immediately, and the
// books balance — every request is answered exactly once.
func TestChaosOverloadBurst(t *testing.T) {
	in := faultify.New(faultify.Config{Seed: 5, Rates: map[faultify.Class]float64{faultify.Hang: 1}, Repeats: -1})
	srv := httptest.NewServer(in.Wrap(webapp.New(10)))
	defer srv.Close()
	g := mustGateway(t, srv.URL, snortEngine(t), Options{
		MaxInFlight: 2, UpstreamTimeout: 150 * time.Millisecond, BreakerThreshold: -1,
	})

	const burst = 16
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes <- get(g, fmt.Sprintf("/products?id=%d", i)).Code
		}(i)
	}
	wg.Wait()
	close(codes)

	var shed, failed, other int
	for c := range codes {
		switch c {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			failed++
		default:
			other++
		}
	}
	if shed+failed+other != burst {
		t.Fatalf("answered %d of %d", shed+failed+other, burst)
	}
	if shed == 0 {
		t.Fatalf("burst of %d over capacity 2 shed nothing (shed=%d failed=%d other=%d)", burst, shed, failed, other)
	}
	if failed == 0 {
		t.Fatal("no admitted request met the hanging upstream")
	}
	if s := g.Snapshot(); s.Shed != int64(shed) {
		t.Fatalf("shed counter %d, want %d", s.Shed, shed)
	}
}

// TestChaosDrainDuringBurst drains the gateway while a concurrent burst is
// mid-flight against the faulting upstream: the drain completes, every
// request is answered (served or shed), and nothing is dropped mid-proxy.
func TestChaosDrainDuringBurst(t *testing.T) {
	srv, _ := chaosUpstream(31, 0.20)
	defer srv.Close()
	g := mustGateway(t, srv.URL, snortEngine(t), Options{
		MaxInFlight: 4, UpstreamTimeout: 150 * time.Millisecond,
	})

	targets := chaosWorkload(48)
	codes := make(chan int, len(targets))
	var wg sync.WaitGroup
	started := make(chan struct{}, len(targets))
	for _, target := range targets {
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			started <- struct{}{}
			codes <- get(g, target).Code
		}(target)
	}
	// Let part of the burst in, then drain while the rest is arriving.
	for i := 0; i < 8; i++ {
		<-started
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatalf("Drain during burst: %v", err)
	}
	wg.Wait()
	close(codes)

	n := 0
	for c := range codes {
		if c == 0 || !allowedStatuses[c] {
			t.Fatalf("dropped or mangled response: status %d", c)
		}
		n++
	}
	if n != len(targets) {
		t.Fatalf("answered %d of %d during drain", n, len(targets))
	}
	// Post-drain the gateway refuses new work but still reports health.
	if w := get(g, "/after"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", w.Code)
	}
	if w := adminGet(g.Admin(AdminConfig{}), "/-/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz post-drain: %d", w.Code)
	}
}
