//go:build !race

// The race detector makes sync.Pool drop entries at random, so allocation
// counts are only meaningful without it.

package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"psigene/internal/httpx"
	"psigene/internal/ids"
)

// quietDetector never alerts and never allocates.
type quietDetector struct{}

func (quietDetector) Name() string                      { return "quiet" }
func (quietDetector) Inspect(httpx.Request) ids.Verdict { return ids.Verdict{} }

// resetWriter is a reusable ResponseWriter whose header map is cleared
// rather than reallocated between requests.
type resetWriter struct {
	h      http.Header
	status int
}

func (w *resetWriter) Header() http.Header         { return w.h }
func (w *resetWriter) WriteHeader(code int)        { w.status = code }
func (w *resetWriter) Write(p []byte) (int, error) { return len(p), nil }

// forwardAllocBudget is the measured allocation count of one forwarded
// benign GET through the gateway handler with an in-memory upstream: the
// deadline context with its cancel func and timer (4), the outbound URL,
// request, its copy carrying the context and its header map (5), and the
// X-Forwarded-For and Content-Length values (2).
const forwardAllocBudget = 11

// TestForwardAllocs pins the forward path's per-request allocations so a
// regression back to per-request client machinery or header copying
// shows up here before it shows up in the benchmark.
func TestForwardAllocs(t *testing.T) {
	const respBody = "<html>product 42</html>"
	rd := strings.NewReader(respBody)
	resp := memResponse(nil, http.Header{"Content-Type": {"text/html"}, "X-Upstream": {"mem"}})
	resp.Body = io.NopCloser(rd)
	g := mustGateway(t, "http://upstream.invalid", quietDetector{}, Options{
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			rd.Reset(respBody)
			return resp, nil
		})},
	})
	r := httptest.NewRequest(http.MethodGet, "/product.php?id=42", nil)
	r.Header.Set("User-Agent", "Mozilla/5.0")
	r.Header.Set("Accept", "text/html")
	w := &resetWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		g.ServeHTTP(w, r)
	}
	serve()
	if w.status != http.StatusOK || w.h.Get("X-Upstream") != "mem" {
		t.Fatalf("status %d headers %v", w.status, w.h)
	}
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("%.1f allocs per forwarded GET", allocs)
	if allocs > forwardAllocBudget {
		t.Fatalf("forwarded GET allocated %.1f objects, budget %d", allocs, forwardAllocBudget)
	}
}
