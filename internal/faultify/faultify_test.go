package faultify

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func backend() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api") {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"results":[{"id":1}],"next":null}`))
			return
		}
		_, _ = w.Write([]byte("<html><body><pre>http://x/a.php?id=1</pre></body></html>"))
	})
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("GET /advisory/%d", i)
	}
	return out
}

func TestPlanDeterministicAndSeedSensitive(t *testing.T) {
	cfg := Config{Seed: 42, Rates: Uniform(0.3)}
	a, b := New(cfg), New(cfg)
	ks := keys(500)
	c := New(Config{Seed: 43, Rates: Uniform(0.3)})
	diff := 0
	for _, k := range ks {
		pa, pb := a.Plan(k), b.Plan(k)
		if pa != pb {
			t.Fatalf("same seed, different plan for %s: %v vs %v", k, pa, pb)
		}
		if c.Plan(k) != pa {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanRates(t *testing.T) {
	in := New(Config{Seed: 7, Rates: Uniform(0.30)})
	ks := keys(4000)
	none := New(Config{Seed: 7})
	faulted := 0
	for _, k := range ks {
		if in.Plan(k) != None {
			faulted++
		}
		if c := none.Plan(k); c != None {
			t.Fatalf("zero-rate injector planned %v for %s", c, k)
		}
	}
	got := float64(faulted) / float64(len(ks))
	if got < 0.25 || got > 0.35 {
		t.Fatalf("afflicted fraction %.3f, want ~0.30", got)
	}
}

// pickKey finds a key whose plan is the wanted class, by appending a
// counter — deterministic given the seed.
func pickKey(t *testing.T, in *Injector, want Class) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("GET /probe/%d", i)
		if in.Plan(k) == want {
			return strings.TrimPrefix(k, "GET ")
		}
	}
	t.Fatalf("no key maps to class %v", want)
	return ""
}

func TestWrapFaultClasses(t *testing.T) {
	in := New(Config{Seed: 11, Rates: Uniform(0.9), Repeats: -1})
	srv := httptest.NewServer(in.Wrap(backend()))
	defer srv.Close()
	client := srv.Client()

	t.Run("500", func(t *testing.T) {
		resp, err := client.Get(srv.URL + pickKey(t, in, Err500))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
	})
	t.Run("429", func(t *testing.T) {
		resp, err := client.Get(srv.URL + pickKey(t, in, RateLimit))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("Retry-After = %q, want 1", ra)
		}
	})
	t.Run("reset", func(t *testing.T) {
		resp, err := client.Get(srv.URL + pickKey(t, in, Reset))
		if err == nil {
			resp.Body.Close()
			t.Fatal("reset fault: want transport error")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		resp, err := client.Get(srv.URL + pickKey(t, in, Truncate))
		if err != nil {
			return // aborted before headers on some transports: also a failure
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err == nil {
			t.Fatal("truncate fault: body read should fail short of Content-Length")
		}
	})
	t.Run("garble-html", func(t *testing.T) {
		resp, err := client.Get(srv.URL + pickKey(t, in, Garble))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "</html>") {
			t.Fatalf("garbled body still well-formed: %q", b)
		}
	})
	t.Run("hang", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+pickKey(t, in, Hang), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Fatal("hang fault: want context deadline error")
		}
	})
}

func TestGarbleJSONUnparseable(t *testing.T) {
	in := New(Config{Seed: 3, Rates: map[Class]float64{Garble: 1}, Repeats: -1})
	srv := httptest.NewServer(in.Wrap(backend()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/search?offset=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if json.Unmarshal(b, &v) == nil {
		t.Fatalf("garbled JSON still parses: %q", b)
	}
}

func TestRepeatsRecovery(t *testing.T) {
	in := New(Config{Seed: 5, Rates: map[Class]float64{Err500: 1}, Repeats: 2})
	srv := httptest.NewServer(in.Wrap(backend()))
	defer srv.Close()
	statuses := []int{}
	for i := 0; i < 4; i++ {
		resp, err := srv.Client().Get(srv.URL + "/advisory/1")
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, resp.StatusCode)
		resp.Body.Close()
	}
	want := []int{500, 500, 200, 200}
	for i := range want {
		if statuses[i] != want[i] {
			t.Fatalf("attempt statuses = %v, want %v", statuses, want)
		}
	}
	st := in.Snapshot()
	if st.Requests != 4 || st.Passed != 2 || st.Injected[Err500] != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Total() != 2 {
		t.Fatalf("Total() = %d, want 2", st.Total())
	}
}

func TestPersistentFault(t *testing.T) {
	in := New(Config{Seed: 5, Rates: map[Class]float64{Err500: 1}, Repeats: -1})
	srv := httptest.NewServer(in.Wrap(backend()))
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := srv.Client().Get(srv.URL + "/advisory/1")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code != 500 {
			t.Fatalf("attempt %d: status %d, want persistent 500", i+1, code)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Requests: 3, Passed: 2, Injected: map[Class]int{Err500: 1}}
	if got := s.String(); !strings.Contains(got, "500=1") || !strings.Contains(got, "requests=3") {
		t.Fatalf("String() = %q", got)
	}
}
