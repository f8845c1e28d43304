// Package gateway is the serving side of pSigene: a reverse proxy that
// scores every inbound request with a Detector before forwarding it to the
// protected upstream. The paper deploys its generalized signatures inside
// Bro/Snort sensors; this package is the equivalent inline deployment for
// the reproduced pipeline, engineered for the failure modes a sensor in
// front of a production app actually meets — overload, upstream outages,
// corrupt model pushes, and buggy signatures — rather than for the happy
// path.
//
// The design is four layers:
//
//   - Admission control: a bounded in-flight semaphore sheds excess load
//     with 503 + Retry-After, request bodies are capped, and every request
//     runs under a deadline budget split between scoring and proxying.
//   - Fault containment: scoring runs under recover() and degrades to the
//     configured fail-open/fail-closed policy; upstream transport failures
//     feed the clock-free circuit breaker from internal/resilience.
//   - Hot reload: the detector is an atomic pointer swapped only after the
//     candidate model validates and survives a probe inspection, so a
//     corrupt push leaves the old detector serving; generation counters
//     let in-flight requests finish on the detector they started with.
//   - Lifecycle: graceful drain on shutdown plus /-/healthz, /-/readyz,
//     /-/statz, /-/metrics, POST /-/reload and the /-/canary/* rollout
//     endpoints, served by the separate handler returned by Admin — never
//     on the proxy's own listener, so public traffic cannot reach the
//     control surface and no upstream route is shadowed. Candidate models
//     can shadow-score a deterministic sample of live traffic (StartCanary)
//     before being promoted or rolled back; see canary.go.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psigene/internal/admission"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/resilience"
)

// Policy says what happens to a request when scoring itself fails (the
// detector panics): fail open forwards it unscored, fail closed rejects
// it. The right choice is a deployment decision — the paper's sensors are
// passive taps (implicitly fail-open); an inline gateway may prefer to
// refuse traffic it cannot vet.
type Policy int

const (
	// FailOpen forwards requests the detector could not score.
	FailOpen Policy = iota
	// FailClosed rejects requests the detector could not score with 403.
	FailClosed
)

// String names the policy for logs and /-/statz.
func (p Policy) String() string {
	if p == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// Options configures a Gateway. The zero value of every field has a safe
// default; only Upstream and an initial detector (Detector or ModelPath,
// via New's det argument) are required.
type Options struct {
	// MaxInFlight bounds concurrently served requests; excess requests
	// are shed with 503 + Retry-After. Default 256.
	MaxInFlight int
	// MaxBodyBytes caps the request body read for scoring; larger bodies
	// are rejected with 413 before any scoring work. Default 1 MiB.
	MaxBodyBytes int64
	// MaxResponseBytes caps the upstream response body; a response that
	// exceeds it (or dies mid-body, e.g. a truncated transfer) becomes a
	// clean 502. Default 4 MiB.
	MaxResponseBytes int64
	// ScoreBudget is the slice of the per-request deadline reserved for
	// scoring. Measured pSigene scoring is ~8µs mean / ~47µs p99 on benign
	// GETs and ~29µs / ~110µs on scanner payloads (core.inspect_ns_per_op,
	// core.inspect_p99_ns in EXPERIMENTS.md "Performance"), so the 10ms
	// default is ~90x p99 headroom there; an 8 KiB form body costs ~5.6ms
	// (p99 ~8.8ms), the case that comes close. A detector that blows
	// through it trips the budget check before the proxy leg starts.
	// Default 10ms.
	ScoreBudget time.Duration
	// UpstreamTimeout is the slice of the deadline for the proxy leg.
	// Default 5s; chaos tests shrink it so Hang faults resolve fast.
	UpstreamTimeout time.Duration
	// RetryAfter is the Retry-After value, in seconds, on shed and
	// breaker-rejected responses. Default 1.
	RetryAfter int
	// Policy is the scoring-failure policy. Default FailOpen.
	Policy Policy
	// BreakerThreshold and BreakerCooldown configure the upstream circuit
	// breaker (see resilience.NewBreaker). The default is 5 consecutive
	// transport failures with a cooldown of 8 denied requests; a negative
	// threshold disables the breaker.
	BreakerThreshold, BreakerCooldown int
	// Client supplies the upstream transport: only Client.Transport is
	// used. The gateway relays responses, so the client's redirect
	// following, cookie jar and timeout play no part; per-request
	// deadlines govern instead. Default (nil Client or nil Transport): a
	// clone of http.DefaultTransport whose keep-alive pool is sized to
	// MaxInFlight — up to MaxInFlight connections to the upstream, all of
	// which may stay idle — so every in-flight request reuses one instead
	// of dialing. The outbound request body aliases a pooled buffer that
	// is reused once forwarding ends, so a custom Transport must be done
	// reading the request body (and GetBody) when RoundTrip returns.
	Client *http.Client
	// Now is the clock used for latency accounting and deadline math;
	// injectable so chaos tests control time. Default time.Now.
	Now func() time.Time
	// Admission is the per-client admission controller (keyed rate
	// limits, penalty box, CIDR denylist), checked before a request may
	// compete for the global in-flight semaphore. nil disables per-client
	// control; the global semaphore still applies. A panic inside the
	// controller fails open to the global semaphore — per-client control
	// is an optimization for fairness, never a reason to drop traffic.
	Admission *admission.Controller
	// ModelVersion and ModelSHA256 tag the initial detector with the
	// artifact version and content hash it was loaded from (see
	// core.Manifest). Empty when the detector is not artifact-backed; the
	// tags surface in X-Psigene-Gen, /-/statz and /-/metrics.
	ModelVersion string
	ModelSHA256  string
}

func (o *Options) fill() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxResponseBytes <= 0 {
		o.MaxResponseBytes = 4 << 20
	}
	if o.ScoreBudget <= 0 {
		o.ScoreBudget = 10 * time.Millisecond
	}
	if o.UpstreamTimeout <= 0 {
		o.UpstreamTimeout = 5 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 1
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 8
	}
	if o.Now == nil {
		//lint:ignore walltime the clock is injected: every decision reads o.Now, the chaos suites replace it with a deterministic counter, and this default only binds the real clock for production deployments
		o.Now = time.Now
	}
}

// detectorState is the immutable unit the atomic pointer swaps: a detector
// plus the generation it was installed at and, when the detector came from
// a versioned artifact, the artifact's version name and content hash.
// In-flight requests hold the state they loaded at admission, so a reload
// mid-request never splits one request across two signature sets.
type detectorState struct {
	det           ids.Detector
	gen           uint64
	version, hash string
	// genHdr is the rendered X-Psigene-Gen value, shared read-only by
	// every response this state scores.
	genHdr []string
}

// newState builds the state for a detector installed at gen. The
// X-Psigene-Gen value is the bare generation for untagged detectors
// (pre-artifact behavior, which existing deployments parse), extended
// with the artifact version and a truncated content hash when known.
func newState(det ids.Detector, gen uint64, version, hash string) *detectorState {
	out := strconv.FormatUint(gen, 10)
	if version != "" {
		out += " " + version
	}
	if hash != "" {
		h := hash
		if len(h) > 12 {
			h = h[:12]
		}
		out += " sha256:" + h
	}
	return &detectorState{det: det, gen: gen, version: version, hash: hash, genHdr: []string{out}}
}

// latencyRingSize bounds the scoring-latency window summarized by /-/statz.
const latencyRingSize = 1024

// Gateway is the scoring reverse proxy. Create with New; it serves via
// ServeHTTP and shuts down via Drain.
type Gateway struct {
	opts      Options
	upstream  *url.URL
	transport http.RoundTripper

	state  atomic.Pointer[detectorState]
	gen    atomic.Uint64
	canary atomic.Pointer[canaryState]

	// sem is the admission semaphore: one token per in-flight request.
	// Drain acquires every token, which is exactly "no requests in
	// flight" with no Add/Wait race.
	sem      chan struct{}
	draining atomic.Bool

	// reloadMu serializes ReloadModel so concurrent pushes cannot
	// interleave their load and swap steps.
	reloadMu sync.Mutex

	// mu guards the breaker (resilience.Breaker is single-threaded by
	// contract) and the latency ring.
	mu       sync.Mutex
	breaker  *resilience.Breaker
	ring     [latencyRingSize]time.Duration
	ringLen  int
	ringNext int

	stats gatewayStats

	// baseMallocs is the process Mallocs count captured at construction;
	// Snapshot divides the growth since then by scored requests for the
	// approximate allocs-per-request gauge.
	baseMallocs uint64
}

// gatewayStats is the atomic counter block behind /-/statz.
type gatewayStats struct {
	total, shed, tooLarge, blocked, forwarded    atomic.Int64
	bodyErrors, scored                           atomic.Int64
	scorePanics, failedOpen, failedClosed        atomic.Int64
	upstreamErrors, breakerRejected, budgetSpent atomic.Int64
	reloads, reloadFailures                      atomic.Int64
	// Per-client admission outcomes: denylist 403s, tier-limit and
	// penalty-box 429s, controller panics failed open, and denylist
	// reload failures (the old trie kept serving).
	denied, rateLimited, penaltyBoxed atomic.Int64
	admissionPanics, denyReloadFails  atomic.Int64
}

// New builds a gateway proxying to upstream (a base URL such as
// "http://127.0.0.1:8080") and scoring with det.
func New(upstream string, det ids.Detector, opts Options) (*Gateway, error) {
	if det == nil {
		return nil, fmt.Errorf("gateway: nil detector")
	}
	u, err := url.Parse(upstream)
	if err != nil {
		return nil, fmt.Errorf("gateway: upstream %q: %w", upstream, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("gateway: upstream %q must be an absolute URL", upstream)
	}
	opts.fill()
	g := &Gateway{
		opts:     opts,
		upstream: u,
		sem:      make(chan struct{}, opts.MaxInFlight),
		breaker:  resilience.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
	}
	if opts.Client != nil {
		g.transport = opts.Client.Transport
	}
	if g.transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = opts.MaxInFlight
		t.MaxIdleConnsPerHost = opts.MaxInFlight
		t.MaxConnsPerHost = opts.MaxInFlight
		g.transport = t
	}
	//lint:ignore atomicguard construction-time install: there is no serving detector yet to protect, and the chaos suites rely on New accepting always-panicking detectors to prove containment; every subsequent swap probes via SwapTagged/StartCanary
	g.state.Store(newState(det, g.gen.Add(1), opts.ModelVersion, opts.ModelSHA256))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.baseMallocs = ms.Mallocs
	return g, nil
}

// Detector returns the currently installed detector and its generation.
func (g *Gateway) Detector() (ids.Detector, uint64) {
	s := g.state.Load()
	return s.det, s.gen
}

// ServingModel returns the serving detector together with its generation
// and the artifact identity it was loaded from (empty strings when the
// detector is not artifact-backed). The fleet front reads it to save the
// serving state before a coordinated swap so a partial fanout failure can
// roll every replica back to exactly what it was serving.
func (g *Gateway) ServingModel() (det ids.Detector, gen uint64, version, hash string) {
	s := g.state.Load()
	return s.det, s.gen, s.version, s.hash
}

// Ready reports whether the gateway is accepting new requests — the
// programmatic equivalent of GET /-/readyz. The fleet front's active
// health probes consult it so a draining replica drops out of the ring
// without a client-visible failure.
func (g *Gateway) Ready() bool {
	return !g.draining.Load()
}

// ServeHTTP is the data path: every request — including anything under
// /-/ , which belongs to the upstream here — runs through admission
// control, scoring, and the upstream leg. The admin surface is a separate
// handler (see Admin) meant for its own listener.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.stats.total.Add(1)

	// Per-client admission runs before the global semaphore so one
	// abusive caller is turned away on its own account instead of
	// consuming an in-flight token every legitimate caller competes for.
	// Its rejections are per-caller signals with their own statuses —
	// 403 for denylisted addresses, 429 + Retry-After for rate limits —
	// distinct from the global 503 shed below.
	if !g.admit(w, r) {
		return
	}

	// Admission: drain refuses new work; the semaphore sheds overload.
	// Both are load signals, so both carry Retry-After.
	if g.draining.Load() {
		g.shed(w, "draining")
		return
	}
	select {
	case g.sem <- struct{}{}:
		defer func() { <-g.sem }()
	default:
		g.shed(w, "overloaded")
		return
	}
	// A drain that started while we were acquiring still wins: without
	// this re-check a request could slip past Drain's token sweep.
	if g.draining.Load() {
		g.shed(w, "draining")
		return
	}

	g.proxy(w, r)
}

// admit runs per-client admission control, writing the rejection (403 or
// 429 + Retry-After) itself when the caller is turned away. It reports
// whether the request may proceed to global admission. A panic inside the
// controller is counted and fails open — the request proceeds to the
// global semaphore unscreened rather than being dropped, mirroring the
// scoring path's containment philosophy: per-client fairness degrading
// must never become an outage.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request) (proceed bool) {
	ctrl := g.opts.Admission
	if ctrl == nil {
		return true
	}
	var d admission.Decision
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				g.stats.admissionPanics.Add(1)
				d = admission.Decision{Verdict: admission.Allow}
			}
		}()
		d = ctrl.Check(r)
	}()
	switch d.Verdict {
	case admission.Denied:
		g.stats.denied.Add(1)
		http.Error(w, "address denied", http.StatusForbidden)
		return false
	case admission.Limited:
		g.stats.rateLimited.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfterSeconds))
		http.Error(w, "rate limit exceeded ("+d.Tier+")", http.StatusTooManyRequests)
		return false
	case admission.Boxed:
		g.stats.penaltyBoxed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfterSeconds))
		http.Error(w, "rate limit exceeded repeatedly; caller blocked", http.StatusTooManyRequests)
		return false
	}
	return true
}

// shed rejects a request for load reasons: 503 plus Retry-After.
func (g *Gateway) shed(w http.ResponseWriter, reason string) {
	g.stats.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(g.opts.RetryAfter))
	http.Error(w, "gateway "+reason, http.StatusServiceUnavailable)
}

// proxy is the scored forwarding path: build the httpx view, score it
// under the budget, then either block or forward with what remains of the
// deadline.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request) {
	start := g.opts.Now()
	state := g.state.Load()
	w.Header()["X-Psigene-Gen"] = state.genHdr

	// The body read buffer is pooled and held until the upstream leg has
	// replayed it; requests without bodies never touch the heap for it.
	bb := bodyPool.Get().(*bodyBuf)
	defer bodyPool.Put(bb)
	req, body, err := g.inbound(r, bb)
	if errors.Is(err, errBodyTooLarge) {
		g.stats.tooLarge.Add(1)
		http.Error(w, fmt.Sprintf("gateway: body exceeds %d bytes", g.opts.MaxBodyBytes), http.StatusRequestEntityTooLarge)
		return
	} else if err != nil {
		// A transport failure (client abort, malformed chunked encoding)
		// is the client's error, not a size violation: 400, own counter.
		g.stats.bodyErrors.Add(1)
		http.Error(w, "gateway: unreadable request body", http.StatusBadRequest)
		return
	}

	verdict, scoreErr := g.score(state.det, req)
	g.stats.scored.Add(1)
	elapsed := g.opts.Now().Sub(start)
	g.recordLatency(elapsed)

	// Canary observation rides the primary verdict: a deterministic sample
	// of scored requests is also scored by the candidate detector and the
	// verdict delta recorded. The canary never decides the response.
	if scoreErr == nil {
		g.observeCanary(req, verdict)
	}

	if scoreErr != nil {
		g.stats.scorePanics.Add(1)
		if g.opts.Policy == FailClosed {
			g.stats.failedClosed.Add(1)
			http.Error(w, "gateway: request not scorable", http.StatusForbidden)
			return
		}
		g.stats.failedOpen.Add(1)
		w.Header().Set("X-Psigene-Degraded", "unscored")
	} else if verdict.Alert {
		g.stats.blocked.Add(1)
		w.Header().Set("X-Psigene-Signatures", strings.Join(verdict.Matched, ","))
		http.Error(w, "request blocked by signature", http.StatusForbidden)
		return
	}

	// Deadline budget: scoring spent `elapsed` of its slice; the proxy
	// leg gets the remainder of ScoreBudget+UpstreamTimeout. A detector
	// that consumed everything fails here instead of hanging the client.
	remaining := g.opts.ScoreBudget + g.opts.UpstreamTimeout - elapsed
	if remaining <= 0 {
		g.stats.budgetSpent.Add(1)
		http.Error(w, "gateway: deadline budget exhausted by scoring", http.StatusGatewayTimeout)
		return
	}
	g.forward(w, r, body, remaining)
}

// errBodyTooLarge distinguishes the over-cap case from body read errors.
var errBodyTooLarge = errors.New("gateway: request body exceeds cap")

// bodyBuf is a pooled request-body read buffer. The pointer wrapper keeps
// the grown backing array with the pool entry across requests.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// readBodyInto reads r to EOF into bb's buffer, stopping as soon as the
// length exceeds limit (one byte past the cap is enough to distinguish
// "exactly at" from "over"). The returned slice aliases bb.
func readBodyInto(bb *bodyBuf, r io.Reader, limit int64) ([]byte, error) {
	buf := bb.b[:0]
	for int64(len(buf)) <= limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			bb.b = buf
			return nil, err
		}
	}
	bb.b = buf
	return buf, nil
}

// inbound converts the wire request into the httpx view the detectors
// score, reading at most MaxBodyBytes of body into bb's pooled buffer.
// The body is returned for replay to the upstream; it aliases bb and is
// valid until bb returns to the pool.
func (g *Gateway) inbound(r *http.Request, bb *bodyBuf) (httpx.Request, []byte, error) {
	// Server-side requests are origin-form: the host lives in r.Host
	// (r.URL.Hostname() would be empty), possibly with a port attached.
	host := r.Host
	if strings.IndexByte(host, ':') >= 0 {
		if h, _, err := net.SplitHostPort(host); err == nil {
			host = h
		}
	}
	req := httpx.Request{
		Method:   strings.ToUpper(r.Method),
		Host:     host,
		Path:     r.URL.Path,
		RawQuery: r.URL.RawQuery,
	}
	if req.Path == "" {
		req.Path = "/"
	}
	var body []byte
	if r.Body != nil {
		b, err := readBodyInto(bb, r.Body, g.opts.MaxBodyBytes)
		if err != nil {
			return req, nil, fmt.Errorf("gateway: read body: %w", err)
		}
		if int64(len(b)) > g.opts.MaxBodyBytes {
			return req, nil, errBodyTooLarge
		}
		if len(b) > 0 {
			body = b
			req.Body = string(b)
		}
	}
	return req, body, nil
}

// recordLatency appends one scoring duration to the stats ring.
func (g *Gateway) recordLatency(d time.Duration) {
	g.mu.Lock()
	g.ring[g.ringNext] = d
	g.ringNext = (g.ringNext + 1) % latencyRingSize
	if g.ringLen < latencyRingSize {
		g.ringLen++
	}
	g.mu.Unlock()
}

// latencyWindow copies the ring for summarizing outside the lock.
func (g *Gateway) latencyWindow() []time.Duration {
	g.mu.Lock()
	out := make([]time.Duration, g.ringLen)
	copy(out, g.ring[:g.ringLen])
	g.mu.Unlock()
	return out
}
