package gateway

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
)

// adminPost posts to the admin control surface.
func adminPost(h http.Handler, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, nil))
	return w
}

func TestCanaryObservesWithoutDeciding(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	// Serving detector alerts on "union select", candidate on "1=1" —
	// so each attack below produces one disagreement, one per direction.
	g := mustGateway(t, up.URL, stubDetector{needle: "union select"}, Options{})
	if err := g.StartCanary(stubDetector{needle: "1=1"}, CanaryConfig{Version: "v000002", Hash: "abc"}); err != nil {
		t.Fatalf("StartCanary: %v", err)
	}

	if w := get(g, "/p?id=1"); w.Code != http.StatusOK {
		t.Fatalf("benign request: %d", w.Code)
	}
	if w := get(g, "/p?id=1+union+select+2"); w.Code != http.StatusForbidden {
		t.Fatalf("old-detector attack: %d, want 403", w.Code)
	}
	// Candidate-only alert: the response must still be the serving
	// detector's verdict — forwarded, not blocked.
	if w := get(g, "/p?id=1+or+1%3d1"); w.Code != http.StatusOK {
		t.Fatalf("candidate-only attack blocked (%d); canary must not decide", w.Code)
	}

	rep, ok := g.CanaryReport()
	if !ok {
		t.Fatal("no canary report")
	}
	if rep.Version != "v000002" || rep.Sampled != 3 {
		t.Fatalf("report %+v, want version v000002 sampled 3", rep)
	}
	if rep.Agree != 1 || rep.OldOnly != 1 || rep.NewOnly != 1 {
		t.Fatalf("deltas %+v, want agree 1 oldOnly 1 newOnly 1", rep)
	}
}

func TestCanaryFractionDeterministic(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	sample := func() int64 {
		g := mustGateway(t, up.URL, stubDetector{}, Options{})
		if err := g.StartCanary(stubDetector{}, CanaryConfig{Fraction: 0.5, Seed: 7}); err != nil {
			t.Fatalf("StartCanary: %v", err)
		}
		for i := 0; i < 200; i++ {
			get(g, "/p?id="+url.QueryEscape(strings.Repeat("x", i%17)+"-"+string(rune('a'+i%26))))
		}
		rep, _ := g.CanaryReport()
		return rep.Sampled
	}
	a, b := sample(), sample()
	if a != b {
		t.Fatalf("same traffic and seed sampled %d then %d requests", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("fraction 0.5 sampled %d of 200; sampling not partial", a)
	}
}

func TestCanaryLifecycleAndPromotion(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	if _, err := g.PromoteCanary(); err == nil {
		t.Fatal("promote without canary must fail")
	}
	if g.AbortCanary() {
		t.Fatal("abort without canary must report false")
	}
	if err := g.StartCanary(stubDetector{needle: "x"}, CanaryConfig{Version: "v000002", Hash: "deadbeef1234ffff"}); err != nil {
		t.Fatalf("StartCanary: %v", err)
	}
	if err := g.StartCanary(stubDetector{}, CanaryConfig{}); err == nil {
		t.Fatal("second concurrent canary must be rejected")
	}
	gen, err := g.PromoteCanary()
	if err != nil {
		t.Fatalf("PromoteCanary: %v", err)
	}
	if gen != 2 {
		t.Fatalf("promotion generation %d, want 2", gen)
	}
	if _, ok := g.CanaryReport(); ok {
		t.Fatal("canary still active after promotion")
	}
	// The promoted detector serves, tagged with its artifact identity
	// (hash truncated to 12 chars in the header).
	got := get(g, "/p?id=1").Header().Get("X-Psigene-Gen")
	if got != "2 v000002 sha256:deadbeef1234" {
		t.Fatalf("X-Psigene-Gen %q after promotion", got)
	}
	snap := g.Snapshot()
	if snap.ModelVersion != "v000002" || snap.ModelSHA256 != "deadbeef1234ffff" {
		t.Fatalf("snapshot model identity %q/%q", snap.ModelVersion, snap.ModelSHA256)
	}

	// A panicking candidate never survives the probe.
	if err := g.StartCanary(panicDetector{}, CanaryConfig{}); err == nil {
		t.Fatal("panicking candidate must fail the canary probe")
	}
}

func TestCanaryAdminEndpoints(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})
	path := trainedModel(t)
	admin := g.Admin(AdminConfig{ModelDir: filepath.Dir(path)})

	if w := adminGet(admin, "/-/canary"); w.Code != http.StatusNotFound {
		t.Fatalf("canary report with none active: %d", w.Code)
	}
	w := adminPost(admin, "/-/canary/start?path="+url.QueryEscape(filepath.Base(path))+"&fraction=1&seed=3")
	if w.Code != http.StatusOK {
		t.Fatalf("canary start: %d: %s", w.Code, w.Body.String())
	}
	if w := adminGet(admin, "/-/canary"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"v1"`) {
		t.Fatalf("canary report: %d: %s", w.Code, w.Body.String())
	}
	// Traversal is rejected before the filesystem is touched.
	if w := adminPost(admin, "/-/canary/start?path=..%2Fv1"); w.Code != http.StatusBadRequest {
		t.Fatalf("traversal canary path: %d", w.Code)
	}
	if w := adminPost(admin, "/-/canary/abort"); w.Code != http.StatusOK {
		t.Fatalf("canary abort: %d", w.Code)
	}
	if w := adminPost(admin, "/-/canary/abort"); w.Code != http.StatusNotFound {
		t.Fatalf("second abort: %d, want 404", w.Code)
	}

	// Start again and promote through the admin surface.
	if w := adminPost(admin, "/-/canary/start?path="+url.QueryEscape(filepath.Base(path))); w.Code != http.StatusOK {
		t.Fatalf("canary restart: %d", w.Code)
	}
	if w := adminPost(admin, "/-/canary/promote"); w.Code != http.StatusOK {
		t.Fatalf("canary promote: %d: %s", w.Code, w.Body.String())
	}
	if snap := g.Snapshot(); snap.ModelVersion != "v1" {
		t.Fatalf("promoted model version %q", snap.ModelVersion)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{needle: "union select"}, Options{
		ModelVersion: "v000001", ModelSHA256: "cafe",
	})
	admin := g.Admin(AdminConfig{})
	get(g, "/p?id=1")
	get(g, "/p?id=1+union+select+2")

	w := adminGet(admin, "/-/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"psigened_requests_total 2",
		"psigened_blocked_total 1",
		"psigened_forwarded_total 1",
		"psigened_reload_generation 1",
		"psigened_breaker_state 0",
		`psigened_model_info{detector="stub",version="v000001",sha256="cafe"} 1`,
		"# TYPE psigened_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	if strings.Contains(body, "psigened_canary_sampled_total") {
		t.Fatal("canary metrics present with no canary active")
	}

	// Canary metrics appear once a canary runs.
	if err := g.StartCanary(stubDetector{}, CanaryConfig{Version: "v000002"}); err != nil {
		t.Fatalf("StartCanary: %v", err)
	}
	get(g, "/p?id=2")
	body = adminGet(admin, "/-/metrics").Body.String()
	if !strings.Contains(body, "psigened_canary_sampled_total 1") {
		t.Fatalf("canary metrics missing in:\n%s", body)
	}
}
