package crawl

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"psigene/internal/resilience"
)

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"3", 3}, {" 10 ", 10}, {"0", 0}, {"-1", 0}, {"", 0}, {"soon", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Fatalf("parseRetryAfter(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBackoffJitterSeededAndBounded(t *testing.T) {
	a, b := New(Options{Seed: 7}), New(Options{Seed: 7})
	other := New(Options{Seed: 8})
	differs := false
	for attempt := 0; attempt < 6; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed, different jitter: %v vs %v", attempt, da, db)
		}
		if other.backoff(attempt) != da {
			differs = true
		}
		bound := a.opts.BackoffBase << uint(attempt)
		if bound > a.opts.BackoffMax || bound <= 0 {
			bound = a.opts.BackoffMax
		}
		if da < 0 || da >= bound {
			t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, da, bound)
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// sleepRecorder collects requested sleep durations without sleeping.
type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *sleepRecorder) Sleep(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slept = append(s.slept, d)
}

func (s *sleepRecorder) count(d time.Duration) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, got := range s.slept {
		if got == d {
			n++
		}
	}
	return n
}

func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte("<html><body><pre>http://x/a.php?id=1</pre></body></html>"))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep, MaxPages: 1})
	res, err := c.CrawlHTML(srv.URL)
	if err != nil {
		t.Fatalf("CrawlHTML: %v", err)
	}
	if res.Health.RateLimited != 2 || res.Health.Retries != 2 {
		t.Fatalf("health = %+v, want 2 rate-limited retries", res.Health)
	}
	if got := rec.count(3 * time.Second); got != 2 {
		t.Fatalf("recorded %d sleeps of 3s (all: %v), want 2 Retry-After waits", got, rec.slept)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("samples = %v, want the page harvested after recovery", res.Samples)
	}
}

func TestQuarantineContinues(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(`<html><body><a href="/bad">x</a><a href="/good">y</a></body></html>`))
	})
	mux.HandleFunc("/bad", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError) // persistent
	})
	mux.HandleFunc("/good", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<html><body><pre>http://x/g.php?id=2</pre></body></html>"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rec := &sleepRecorder{}
	// Breaker off: this test isolates quarantine (the persistent /bad would
	// otherwise trip the host breaker and take /good down with it).
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep, BreakerThreshold: -1})
	res, err := c.CrawlHTML(srv.URL)
	if err != nil {
		t.Fatalf("CrawlHTML: %v", err)
	}
	if res.Health.PagesSkipped != 1 {
		t.Fatalf("health = %+v, want exactly one quarantined page", res.Health)
	}
	if len(res.Health.Quarantined) != 1 || !strings.HasSuffix(res.Health.Quarantined[0], "/bad") {
		t.Fatalf("quarantined = %v", res.Health.Quarantined)
	}
	if len(res.Samples) != 1 || res.Samples[0].Path != "/g.php" {
		t.Fatalf("samples = %+v, want the good page's sample", res.Samples)
	}
}

func TestBodyCapQuarantinesOversizedPage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<html>" + strings.Repeat("A", 1<<16) + "</html>"))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep, MaxBodyBytes: 1 << 10})
	res, err := c.CrawlHTML(srv.URL)
	if !errors.Is(err, ErrNoPages) {
		t.Fatalf("err = %v, want ErrNoPages (the only page is oversized)", err)
	}
	if res.Health.PagesSkipped != 1 || res.Health.Retries != 0 {
		t.Fatalf("health = %+v, want one permanent skip with no retries", res.Health)
	}
}

func TestTimeoutThenRecovery(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			<-r.Context().Done() // stall until the client's timeout fires
			return
		}
		_, _ = w.Write([]byte("<html><body><pre>http://x/t.php?id=3</pre></body></html>"))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep, Timeout: 100 * time.Millisecond, MaxPages: 1})
	res, err := c.CrawlHTML(srv.URL)
	if err != nil {
		t.Fatalf("CrawlHTML: %v", err)
	}
	if res.Health.Retries == 0 {
		t.Fatalf("health = %+v, want at least one retry after the hang", res.Health)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("samples = %v", res.Samples)
	}
}

func TestBreakerTripsOnMeltdown(t *testing.T) {
	// The index works and links three doomed pages; every other page 502s
	// persistently. The first doomed page burns its retry budget and trips
	// the breaker; the rest mostly fail fast on the open breaker.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			_, _ = w.Write([]byte(`<html><body>` +
				`<a href="/a">a</a><a href="/b">b</a><a href="/c">c</a>` +
				`</body></html>`))
			return
		}
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep, BreakerThreshold: 3, BreakerCooldown: 4})
	res, err := c.CrawlHTML(srv.URL)
	if err != nil {
		t.Fatalf("CrawlHTML: %v", err)
	}
	if res.Health.BreakerTrips == 0 {
		t.Fatalf("health = %+v, want breaker trips", res.Health)
	}
	if res.Health.BreakerSkips == 0 {
		t.Fatalf("health = %+v, want fast-failed attempts while open", res.Health)
	}
	if res.Health.PagesSkipped != 3 {
		t.Fatalf("health = %+v, want all three doomed pages quarantined", res.Health)
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Version:     checkpointVersion,
		Portal:      "http://p",
		Kind:        "html",
		Frontier:    []string{"http://p/x", "http://p/y"},
		Visited:     []string{"http://p/"},
		SeenSamples: []string{"http://t/a?id=1"},
		CVEs:        []string{"CVE-2012-3554"},
		Health:      Health{PagesFetched: 1, Retries: 2},
		Breakers:    map[string]resilience.BreakerSnapshot{"p:80": {State: resilience.BreakerOpen, Remaining: 3}},
	}
	var b strings.Builder
	if err := cp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Portal != cp.Portal || got.Kind != cp.Kind || len(got.Frontier) != 2 ||
		got.Health.Retries != 2 || got.Breakers["p:80"].Remaining != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeCheckpoint(strings.NewReader(`{"version":99,"kind":"html"}`)); err == nil {
		t.Fatal("wrong version must be rejected")
	}
	if _, err := DecodeCheckpoint(strings.NewReader(`{"version":1,"kind":"weird"}`)); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
}

func TestSaveLoadCheckpoint(t *testing.T) {
	path := t.TempDir() + "/cp.json"
	cp := &Checkpoint{Version: checkpointVersion, Portal: "http://p", Kind: "api", Offset: 40}
	if err := SaveCheckpoint(cp, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offset != 40 || got.Kind != "api" {
		t.Fatalf("loaded = %+v", got)
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://h:8080/x/y?q=1": "h:8080",
		"http://h/x":            "h",
		"h/x":                   "h",
		"http://h":              "h",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want {
			t.Fatalf("hostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMaxPagesCountsQuarantined(t *testing.T) {
	// A portal that always 500s must terminate after MaxPages attempts,
	// not loop forever re-quarantining.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	rec := &sleepRecorder{}
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep, MaxPages: 3})
	res, err := c.CrawlAPI(srv.URL)
	if !errors.Is(err, ErrNoPages) {
		t.Fatalf("err = %v, want ErrNoPages", err)
	}
	if res.Health.PagesSkipped != 3 {
		t.Fatalf("health = %+v, want exactly MaxPages quarantined windows", res.Health)
	}
}

func TestFetchPermanentOn4xx(t *testing.T) {
	// A 4xx is permanent: no retries, and the (large) error body is
	// drained through the bounded reader, not slurped.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(strings.Repeat("B", 1<<20)))
	}))
	defer srv.Close()
	rec := &sleepRecorder{}
	c := New(Options{Client: srv.Client(), Sleep: rec.Sleep})
	var h Health
	if _, _, err := c.fetch(srv.URL+"/x", nil, &h); err == nil {
		t.Fatal("404 must be a permanent error")
	}
	if h.Retries != 0 {
		t.Fatalf("health = %+v, want no retries for a 4xx", h)
	}
}

func TestFinishErrNoPagesOnlyWhenAttempted(t *testing.T) {
	// An empty frontier (nothing attempted) is not a down portal.
	c := New(Options{})
	st := newState("html", "http://p")
	st.queue = nil
	if res, err := c.finish(st); err != nil {
		t.Fatalf("finish on empty crawl: %v (res %+v)", err, res)
	}
}

func TestValidateHTML(t *testing.T) {
	if err := validateHTML("<html><body>x</body></html>"); err != nil {
		t.Fatalf("complete page rejected: %v", err)
	}
	if err := validateHTML("<html><body>cut off"); err == nil {
		t.Fatal("truncated page accepted")
	}
}
