package gateway

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"time"
)

// hopByHopHeaders are stripped when copying headers either direction
// (RFC 7230 §6.1); everything else passes through untouched.
var hopByHopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// forward is the upstream leg: breaker check, a bounded-deadline round
// trip, and a fully-buffered bounded body read before the first byte is
// written downstream. Buffering first means a mid-body upstream failure
// (reset, truncation) becomes a clean 502 instead of a half-written 200.
// The round trip goes straight to the transport: a reverse proxy relays
// redirects rather than following them, and it has no use for a client's
// cookie jar or header copying.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, body []byte, budget time.Duration) {
	if !g.breakerAllow() {
		g.stats.breakerRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(g.opts.RetryAfter))
		http.Error(w, "gateway: upstream circuit open", http.StatusServiceUnavailable)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	resp, err := g.transport.RoundTrip(g.outbound(r, body).WithContext(ctx))
	if err != nil {
		g.upstreamFailed(w, err)
		return
	}
	defer resp.Body.Close()

	// Bounded full read into a pooled buffer: a Truncate fault or
	// oversized response surfaces here, while downstream has seen nothing
	// yet.
	rb := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(rb)
	respBody, err := readBodyInto(rb, resp.Body, g.opts.MaxResponseBytes)
	if err != nil {
		g.upstreamFailed(w, err)
		return
	}
	if int64(len(respBody)) > g.opts.MaxResponseBytes {
		g.upstreamFailed(w, errResponseTooLarge)
		return
	}

	// The round trip completed: the transport is healthy, whatever the
	// status. Upstream 5xx are application responses (the demo webapp
	// answers SQL errors with 500) and pass through without feeding the
	// breaker — the breaker protects against a dead transport, not an
	// unhappy application.
	g.breakerSuccess()
	g.stats.forwarded.Add(1)

	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody)
}

// outbound builds the upstream request for r: the upstream base URL with
// the inbound path and query (the path the detector scored, so an escaped
// slash reaches the upstream decoded, as it was scored), the end-to-end
// headers plus X-Forwarded-For, and the buffered body. The body is
// replayable (NoBody or GetBody) so the transport may retry a GET that
// lands on a pooled connection the upstream has already closed.
func (g *Gateway) outbound(r *http.Request, body []byte) *http.Request {
	u := *g.upstream
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	h := make(http.Header, len(r.Header)+1)
	copyHeaders(h, r.Header)
	setForwardedFor(h, r)
	out := &http.Request{
		Method: r.Method,
		URL:    &u,
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h,
		Host:   u.Host,
		Body:   http.NoBody,
	}
	if len(body) > 0 {
		out.ContentLength = int64(len(body))
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	return out
}

// errResponseTooLarge marks an upstream body that blew the cap.
var errResponseTooLarge = errTooLarge{}

type errTooLarge struct{}

func (errTooLarge) Error() string { return "gateway: upstream response exceeds cap" }

// upstreamFailed answers 502 and feeds the breaker one failure.
func (g *Gateway) upstreamFailed(w http.ResponseWriter, err error) {
	g.stats.upstreamErrors.Add(1)
	g.breakerFailure()
	http.Error(w, "gateway: upstream failed: "+err.Error(), http.StatusBadGateway)
}

// breakerAllow, breakerSuccess, breakerFailure wrap the single-threaded
// resilience.Breaker in the gateway mutex. A nil breaker allows all.
func (g *Gateway) breakerAllow() bool {
	if g.breaker == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.breaker.Allow()
}

func (g *Gateway) breakerSuccess() {
	if g.breaker == nil {
		return
	}
	g.mu.Lock()
	g.breaker.Success()
	g.mu.Unlock()
}

func (g *Gateway) breakerFailure() {
	if g.breaker == nil {
		return
	}
	g.mu.Lock()
	g.breaker.Failure()
	g.mu.Unlock()
}

// setForwardedFor appends the client IP (RemoteAddr minus the port) to
// any X-Forwarded-For chain an outer proxy already built, rather than
// overwriting it.
func setForwardedFor(h http.Header, r *http.Request) {
	ip := r.RemoteAddr
	if host, _, err := net.SplitHostPort(ip); err == nil {
		ip = host
	}
	if ip == "" {
		return
	}
	if prior := strings.Join(r.Header.Values("X-Forwarded-For"), ", "); prior != "" {
		ip = prior + ", " + ip
	}
	h.Set("X-Forwarded-For", ip)
}

// copyHeaders copies src's end-to-end headers into dst, sharing src's
// value slices (neither side mutates them; a key dst already holds gets a
// fresh slice). It drops the fixed hop-by-hop set and every header src's
// Connection header names (RFC 7230 §6.1).
func copyHeaders(dst, src http.Header) {
	conn := src["Connection"]
	for k, vs := range src {
		k = http.CanonicalHeaderKey(k)
		if hopByHopHeaders[k] || connectionListed(conn, k) {
			continue
		}
		if prior, ok := dst[k]; ok {
			vs = append(prior[:len(prior):len(prior)], vs...)
		}
		dst[k] = vs
	}
}

// connectionListed reports whether a Connection header's comma-separated
// options name header k.
func connectionListed(conn []string, k string) bool {
	for _, v := range conn {
		for v != "" {
			var opt string
			opt, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(textproto.TrimString(opt), k) {
				return true
			}
		}
	}
	return false
}
