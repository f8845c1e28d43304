package gateway

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"psigene/internal/resilience"
)

// roundTripFunc is an in-memory upstream transport.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// memResponse is a 200 with the given headers and no body.
func memResponse(r *http.Request, h http.Header) *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: http.NoBody, Request: r,
	}
}

// TestUpstreamRedirectRelayed: an upstream redirect goes back to the
// client as-is. Following it would fetch a URL the detector never scored
// (here an injection in the redirect target) and answer it as a 200 for
// the path the client asked for.
func TestUpstreamRedirectRelayed(t *testing.T) {
	const location = "/login?next=%27or%201=1--"
	var hits atomic.Int64
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.URL.Path == "/account" {
			w.Header().Set("Location", location)
			w.WriteHeader(http.StatusFound)
			return
		}
		_, _ = io.WriteString(w, "login page")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{needle: "or 1=1"}, Options{})

	w := get(g, "/account")
	if w.Code != http.StatusFound {
		t.Fatalf("status %d, want 302 relayed", w.Code)
	}
	if got := w.Header().Get("Location"); got != location {
		t.Fatalf("Location %q, want %q", got, location)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("upstream hit %d times, want exactly once", n)
	}
	if s := g.Snapshot(); s.Forwarded != 1 {
		t.Fatalf("forwarded %d, want 1", s.Forwarded)
	}
}

// TestConnectionListedRequestHeaders: headers the inbound Connection
// header names are hop-by-hop and never reach the upstream (RFC 7230
// §6.1), alongside the fixed hop-by-hop set.
func TestConnectionListedRequestHeaders(t *testing.T) {
	cases := []struct {
		name             string
		in               http.Header
		stripped, passed []string
	}{
		{"listed", http.Header{"Connection": {"X-Internal"}, "X-Internal": {"secret"}, "X-Keep": {"1"}},
			[]string{"Connection", "X-Internal"}, []string{"X-Keep"}},
		{"list with spaces and case", http.Header{"Connection": {"keep-alive, X-A , x-b"}, "X-A": {"1"}, "X-B": {"2"}, "X-C": {"3"}},
			[]string{"X-A", "X-B"}, []string{"X-C"}},
		{"repeated Connection", http.Header{"Connection": {"X-A", "X-B"}, "X-A": {"1"}, "X-B": {"2"}},
			[]string{"X-A", "X-B"}, nil},
		{"fixed set", http.Header{"Keep-Alive": {"timeout=5"}, "Te": {"trailers"}, "X-Internal": {"kept"}},
			[]string{"Keep-Alive", "Te"}, []string{"X-Internal"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seen http.Header
			g := mustGateway(t, "http://upstream.invalid", stubDetector{}, Options{
				Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
					seen = r.Header
					return memResponse(r, http.Header{}), nil
				})},
			})
			r := httptest.NewRequest(http.MethodGet, "/p", nil)
			r.Header = tc.in
			g.ServeHTTP(httptest.NewRecorder(), r)
			for _, k := range tc.stripped {
				if v, ok := seen[k]; ok {
					t.Errorf("upstream saw %s: %q", k, v)
				}
			}
			for _, k := range tc.passed {
				if !reflect.DeepEqual(seen[k], tc.in[k]) {
					t.Errorf("upstream saw %s = %q, want %q", k, seen[k], tc.in[k])
				}
			}
		})
	}
}

// TestConnectionListedResponseHeaders: the same stripping applies to the
// upstream's response on its way to the client.
func TestConnectionListedResponseHeaders(t *testing.T) {
	cases := []struct {
		name             string
		resp             http.Header
		stripped, passed []string
	}{
		{"listed", http.Header{"Connection": {"X-Backend"}, "X-Backend": {"db-3"}, "X-Keep": {"1"}},
			[]string{"Connection", "X-Backend"}, []string{"X-Keep"}},
		{"list with spaces and case", http.Header{"Connection": {"close, x-a ,X-B"}, "X-A": {"1"}, "X-B": {"2"}, "X-C": {"3"}},
			[]string{"X-A", "X-B"}, []string{"X-C"}},
		{"fixed set", http.Header{"Upgrade": {"h2c"}, "Proxy-Authenticate": {"Basic"}, "X-Backend": {"kept"}},
			[]string{"Upgrade", "Proxy-Authenticate"}, []string{"X-Backend"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGateway(t, "http://upstream.invalid", stubDetector{}, Options{
				Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
					return memResponse(r, tc.resp), nil
				})},
			})
			w := get(g, "/p")
			if w.Code != http.StatusOK {
				t.Fatalf("status %d", w.Code)
			}
			for _, k := range tc.stripped {
				if v, ok := w.Header()[k]; ok {
					t.Errorf("client saw %s: %q", k, v)
				}
			}
			for _, k := range tc.passed {
				if !reflect.DeepEqual(w.Header()[k], tc.resp[k]) {
					t.Errorf("client saw %s = %q, want %q", k, w.Header()[k], tc.resp[k])
				}
			}
		})
	}
}

// TestUpstreamConnectionsReused: concurrent callers within MaxInFlight
// share keep-alive connections instead of dialing per request, and a
// pooled connection the upstream closed is retried transparently rather
// than surfacing as a 502 that feeds the breaker.
func TestUpstreamConnectionsReused(t *testing.T) {
	const callers, perCaller = 8, 500
	var dials atomic.Int64
	up := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	up.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	up.Start()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{MaxInFlight: callers})

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if w := get(g, "/p?id=42"); w.Code != http.StatusOK {
					t.Errorf("status %d", w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	n := dials.Load()
	t.Logf("%d upstream connections for %d requests from %d callers", n, callers*perCaller, callers)
	if n > callers {
		t.Fatalf("%d upstream connections, want at most %d", n, callers)
	}

	if w := get(g, "/p"); w.Code != http.StatusOK {
		t.Fatalf("status %d before the upstream closed its connections", w.Code)
	}
	up.CloseClientConnections()
	if w := get(g, "/p"); w.Code != http.StatusOK {
		t.Fatalf("status %d after the upstream closed its connections, want 200", w.Code)
	}
	s := g.Snapshot()
	if s.UpstreamErrors != 0 {
		t.Fatalf("upstreamErrors %d, want 0", s.UpstreamErrors)
	}
	if s.Breaker == nil || s.Breaker.State != resilience.BreakerClosed {
		t.Fatalf("breaker %+v, want closed", s.Breaker)
	}
}

// legacyOutbound is the upstream request as the gateway built it through
// http.NewRequestWithContext, kept as the reference outbound must match.
func legacyOutbound(g *Gateway, r *http.Request, body []byte) (*http.Request, error) {
	target := *g.upstream
	target.Path = r.URL.Path
	target.RawQuery = r.URL.RawQuery
	out, err := http.NewRequestWithContext(context.Background(), r.Method, target.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		if hopByHopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			out.Header.Add(k, v)
		}
	}
	setForwardedFor(out.Header, r)
	return out, nil
}

// TestOutboundParity: the directly built upstream request carries the
// same method, request URI, Host, headers and body as the
// NewRequestWithContext path it replaced. The path is the decoded one the
// detector scored, so an escaped slash reaches the upstream as "/" under
// both constructions.
func TestOutboundParity(t *testing.T) {
	g := mustGateway(t, "http://127.0.0.1:8080", stubDetector{}, Options{})
	cases := []struct{ name, wire string }{
		{"escaped slash", "GET /files/a%2Fb HTTP/1.1\r\nHost: shop\r\n\r\n"},
		{"space", "GET /a%20b?q=x%20y HTTP/1.1\r\nHost: shop\r\n\r\n"},
		{"non-ASCII", "GET /caf%C3%A9?q=%E2%82%AC HTTP/1.1\r\nHost: shop\r\n\r\n"},
		{"empty path", "GET http://shop?id=1 HTTP/1.1\r\nHost: shop\r\n\r\n"},
		{"bare query mark", "GET /p? HTTP/1.1\r\nHost: shop\r\n\r\n"},
		{"POST body", "POST /login HTTP/1.1\r\nHost: shop:8443\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 21\r\n\r\nuser=admin&pass=hunt2"},
		{"forwarded chain", "GET /p HTTP/1.1\r\nHost: shop\r\nX-Forwarded-For: 203.0.113.9\r\nX-Forwarded-For: 198.51.100.7, 10.0.0.1\r\nAccept: a\r\nAccept: b\r\nKeep-Alive: timeout=5\r\n\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(tc.wire)))
			if err != nil {
				t.Fatal(err)
			}
			r.RemoteAddr = "192.0.2.1:1234"
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Fatal(err)
			}
			want, err := legacyOutbound(g, r, body)
			if err != nil {
				t.Fatal(err)
			}
			got := g.outbound(r, body)
			if got.Method != want.Method || got.URL.RequestURI() != want.URL.RequestURI() || got.Host != want.Host {
				t.Fatalf("got %s %s Host %q, want %s %s Host %q",
					got.Method, got.URL.RequestURI(), got.Host, want.Method, want.URL.RequestURI(), want.Host)
			}
			if got.URL.String() != want.URL.String() {
				t.Fatalf("URL %q, want %q", got.URL, want.URL)
			}
			if !reflect.DeepEqual(got.Header, want.Header) {
				t.Fatalf("headers %v, want %v", got.Header, want.Header)
			}
			if got.ContentLength != want.ContentLength {
				t.Fatalf("ContentLength %d, want %d", got.ContentLength, want.ContentLength)
			}
			for _, req := range []*http.Request{got, want} {
				b, err := io.ReadAll(req.Body)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, body) {
					t.Fatalf("body %q, want %q", b, body)
				}
				if req.GetBody != nil {
					rc, err := req.GetBody()
					if err != nil {
						t.Fatal(err)
					}
					if b, _ := io.ReadAll(rc); !bytes.Equal(b, body) {
						t.Fatalf("replayed body %q, want %q", b, body)
					}
				}
			}
		})
	}
}
