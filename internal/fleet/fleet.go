// Package fleet is fault-tolerant multi-replica serving for psigened: a
// thin front that spreads traffic across N in-process gateway replicas and
// keeps the fleet answering — and answering consistently — while
// individual replicas fail, get ejected, recover, and reload models.
//
// One gateway is a single point of failure for both availability and model
// consistency; a fleet is only trustworthy if it provably serves the same
// verdicts as one healthy instance. The design therefore leans entirely on
// deterministic, count-driven machinery:
//
//   - Routing: a consistent-hash ring (resilience.HashKey over caller
//     keys) with virtual nodes. Routing is caller-affine, so a caller's
//     per-client admission state (rate tiers, penalty box) lives on one
//     replica instead of being diluted N ways.
//   - Health: each replica has a request-count resilience.Breaker fed by
//     passive dispatch failures and by active readyz probes that run every
//     ProbeEvery dispatches (no timers — cadence is counted, not clocked).
//     Threshold consecutive failures eject the replica; while ejected its
//     keys route to the next ring replica; after cooldown skipped
//     dispatches one live request is admitted as the readmission probe.
//   - Failover: when a dispatch fails without a verdict (replica down, or
//     a panic before anything was written), the request is retried exactly
//     once on the next distinct ring replica after a seeded full-jitter
//     backoff. A replica that rendered any verdict — even a 5xx — is never
//     retried: the upstream may already have been contacted, and replaying
//     a request whose verdict exists would both double-serve it and break
//     the fleet-equals-single-instance verdict guarantee.
//   - Reload: model swaps are a two-phase fanout (see reload.go): probe
//     the candidate on every replica, commit on all only if every probe
//     passed, roll back to the saved serving state on any partial failure.
//     Commits exclude in-flight requests, so no request ever observes a
//     mixed-generation fleet.
//
// Everything is a pure function of (seed, request sequence, injected
// hooks): the package sits in psigenelint's kernel set, and the
// fleet-chaos suite replays bit-identical transcripts from a seed while
// asserting the fleet's verdict multiset equals a single-instance run.
package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"psigene/internal/gateway"
	"psigene/internal/ids"
	"psigene/internal/resilience"
)

// backend is the slice of *gateway.Gateway the front drives, as an
// interface so fleet tests can stand in deliberately failing replicas
// without constructing a full gateway.
type backend interface {
	http.Handler
	Ready() bool
	ServingModel() (det ids.Detector, gen uint64, version, hash string)
	ProbeDetector(det ids.Detector) error
	SwapTagged(det ids.Detector, version, hash string) (uint64, error)
	Snapshot() gateway.Snapshot
	Drain(ctx context.Context) error
}

// Options configures a Front. The zero value of every field has a safe
// default.
type Options struct {
	// Seed feeds the ring layout, caller hashing and retry jitter; same
	// seed, same routing. Default 1.
	Seed int64
	// VirtualNodes is the ring points per replica. Default 32.
	VirtualNodes int
	// KeyFunc derives the routing key from a request. The default keys by
	// client IP (RemoteAddr minus the port). Deployments that key
	// admission by a header should route by the same key (see HeaderKey)
	// so caller affinity and admission identity agree.
	KeyFunc func(*http.Request) string
	// BreakerThreshold is the consecutive dispatch failures that eject a
	// replica; BreakerCooldown is the routed-past dispatches an ejected
	// replica sits out before one live request is admitted as its
	// readmission probe. Defaults 3 and 8.
	BreakerThreshold, BreakerCooldown int
	// ProbeEvery is the active health-probe cadence in dispatches: on
	// every ProbeEvery-th request, every replica's readiness is checked
	// and a dead or not-ready replica's breaker is fed one failure, so a
	// draining or killed replica is ejected without waiting for
	// client-visible failures. Negative disables active probing.
	// Default 64.
	ProbeEvery int
	// RetryBase and RetryMax bound the seeded full-jitter backoff taken
	// before the single failover retry. Defaults 2ms and 20ms.
	RetryBase, RetryMax time.Duration
	// Sleep performs the failover backoff; injectable so the chaos suite
	// runs with zero wall-clock sleeps. Default time.Sleep.
	Sleep func(time.Duration)
	// RetryAfter is the Retry-After value, in seconds, on fleet 503s.
	// Default 1.
	RetryAfter int
	// ProbeHook, when non-nil, runs after a replica's own probe during
	// the first reload phase and can veto it — the deterministic
	// fault-injection seam the chaos suite uses to force a single replica
	// to fail its probe (a replica-local failure mode: exhausted memory,
	// a wedged runtime) without faking a corrupt model.
	ProbeHook func(replica int, det ids.Detector) error
	// CommitHook, when non-nil, runs before a replica's commit during the
	// second reload phase and can fail it — the seam that forces the
	// partial-failure rollback path.
	CommitHook func(replica int) error
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 32
	}
	if o.KeyFunc == nil {
		o.KeyFunc = ClientIPKey
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 8
	}
	if o.ProbeEvery < 0 {
		o.ProbeEvery = 0
	} else if o.ProbeEvery == 0 {
		o.ProbeEvery = 64
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax < o.RetryBase {
		o.RetryMax = 10 * o.RetryBase
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 1
	}
}

// ClientIPKey is the default routing key: the client IP with the port
// stripped — the same identity per-client admission falls back to, so the
// default fleet keeps limiter state coherent without configuration.
func ClientIPKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// HeaderKey routes by a request header (an API key validated upstream),
// falling back to the client IP when the header is absent — the fleet
// analogue of admission's header-first identity.
func HeaderKey(name string) func(*http.Request) string {
	return func(r *http.Request) string {
		if v := r.Header.Get(name); v != "" {
			return v
		}
		return ClientIPKey(r)
	}
}

// replica is one gateway instance plus its fleet-side health state.
type replica struct {
	id int
	gw backend

	// down simulates a dead process: dispatches fail instantly, before
	// any verdict work. Kill/Revive flip it — the chaos suite's kill
	// switch and an operator's maintenance toggle.
	down atomic.Bool

	// mu guards the health breaker (resilience.Breaker is single-threaded
	// by contract).
	mu      sync.Mutex
	breaker *resilience.Breaker

	served, failures        atomic.Int64
	ejections, readmissions atomic.Int64
}

// allow reports whether routing may dispatch to this replica. While the
// breaker is open it consumes one cooldown tick; when the ticks are spent
// the next request through here is the readmission probe.
func (rep *replica) allow() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.breaker.Allow()
}

// success records a served request; a half-open probe success readmits the
// replica.
func (rep *replica) success() {
	rep.served.Add(1)
	rep.mu.Lock()
	readmitted := rep.breaker.State() == resilience.BreakerHalfOpen
	rep.breaker.Success()
	rep.mu.Unlock()
	if readmitted {
		rep.readmissions.Add(1)
	}
}

// failure records a dispatch failure; threshold consecutive failures (or
// one failed readmission probe) eject the replica.
func (rep *replica) failure() {
	rep.failures.Add(1)
	rep.mu.Lock()
	tripped := rep.breaker.Failure()
	rep.mu.Unlock()
	if tripped {
		rep.ejections.Add(1)
	}
}

// breakerState reads the breaker position under its lock.
func (rep *replica) breakerState() resilience.BreakerSnapshot {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.breaker.Snapshot()
}

// fleetStats is the atomic counter block behind the front's /-/statz.
type fleetStats struct {
	total, failovers, unavailable atomic.Int64
	probeSweeps                   atomic.Int64
	reloads, reloadFailures       atomic.Int64
	rollbacks, rollbackFailures   atomic.Int64
}

// Front is the fleet front: an http.Handler that routes every request to
// one replica (with at most one failover retry) and the control surface
// for coordinated reloads. Create with New.
type Front struct {
	opts     Options
	replicas []*replica
	ring     ring

	// gen counts successful coordinated reloads, starting at 1 for the
	// construction-time model. Stamped on X-Psigene-Fleet so any response
	// names the fleet generation that served it.
	gen atomic.Uint64

	// serveMu is the reload barrier: requests hold it shared, the commit
	// phase of a coordinated swap holds it exclusively. That exclusion is
	// the "no request observes a mixed generation" guarantee — a request
	// either runs entirely before a fleet-wide swap or entirely after it,
	// never against a fleet whose replicas disagree about the model.
	serveMu sync.RWMutex

	// reloadMu serializes coordinated reloads, same role as the
	// gateway's: concurrent fanouts must not interleave their phases.
	reloadMu sync.Mutex

	// dispatches counts requests for the active-probe cadence.
	dispatches atomic.Int64

	// rngMu guards the jitter rng (SplitMix64 is single-threaded). The
	// draw happens under the lock; the sleep itself never does.
	rngMu sync.Mutex
	rng   *resilience.SplitMix64

	stats fleetStats
}

// New builds a front over the given gateway replicas.
func New(replicas []*gateway.Gateway, opts Options) (*Front, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fleet: need at least one replica")
	}
	backends := make([]backend, len(replicas))
	for i, g := range replicas {
		if g == nil {
			return nil, fmt.Errorf("fleet: replica %d is nil", i)
		}
		backends[i] = g
	}
	return newFront(backends, opts), nil
}

// newFront is the interface-typed constructor the tests use directly.
func newFront(backends []backend, opts Options) *Front {
	opts.fill()
	f := &Front{
		opts:     opts,
		replicas: make([]*replica, len(backends)),
		ring:     buildRing(opts.Seed, len(backends), opts.VirtualNodes),
		rng:      resilience.NewSplitMix64(uint64(opts.Seed)),
	}
	for i, b := range backends {
		f.replicas[i] = &replica{
			id:      i,
			gw:      b,
			breaker: resilience.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		}
	}
	f.gen.Store(1)
	return f
}

// Replicas returns the fleet size.
func (f *Front) Replicas() int { return len(f.replicas) }

// Generation returns the fleet generation: 1 at construction, +1 per
// successful coordinated reload. Rolled-back fanouts do not advance it.
func (f *Front) Generation() uint64 { return f.gen.Load() }

// Kill marks replica i dead: every dispatch to it fails before any verdict
// work, exactly like a connection refused by a crashed process. The chaos
// suite's kill switch and an operator's maintenance toggle.
func (f *Front) Kill(i int) error {
	if i < 0 || i >= len(f.replicas) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.replicas[i].down.Store(true)
	return nil
}

// Revive clears a Kill. The replica does not rejoin instantly: its breaker
// is still open from the failures that ejected it, so it re-earns traffic
// through the normal cooldown → readmission-probe path.
// Kept for TestEjectionAndReadmission until the fleet package is deleted (ROADMAP D1).
func (f *Front) Revive(i int) error {
	if i < 0 || i >= len(f.replicas) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.replicas[i].down.Store(false)
	return nil
}

// Drain drains every replica in order. The first error wins but every
// replica is still drained — shutdown must not strand later replicas
// because an earlier one timed out.
func (f *Front) Drain(ctx context.Context) error {
	var first error
	for _, rep := range f.replicas {
		if err := rep.gw.Drain(ctx); err != nil && first == nil {
			first = fmt.Errorf("fleet: drain replica %d: %w", rep.id, err)
		}
	}
	return first
}

// dispatchOutcome classifies one attempt against one replica.
type dispatchOutcome int

const (
	// servedOK: the replica rendered a verdict (any status — a 403 block
	// or an upstream 502 is still a verdict).
	servedOK dispatchOutcome = iota
	// failedClean: the replica failed before writing anything — down, or
	// a panic with nothing on the wire. Safe to retry elsewhere.
	failedClean
	// failedDirty: the replica failed after bytes reached the client.
	// Never retried: the response is already partially committed.
	failedDirty
)

// ServeHTTP routes the request to its home replica with at most one
// failover retry along the ring. Held shared against the reload barrier
// for its whole duration.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.serveMu.RLock()
	defer f.serveMu.RUnlock()

	f.stats.total.Add(1)
	n := f.dispatches.Add(1)
	if f.opts.ProbeEvery > 0 && n%int64(f.opts.ProbeEvery) == 0 {
		f.activeProbe()
	}

	h := resilience.HashKey(f.opts.Seed, f.opts.KeyFunc(r))
	order := f.ring.walk(h, make([]int, 0, len(f.replicas)))

	attempts := 0
	for _, id := range order {
		if attempts >= 2 {
			break
		}
		rep := f.replicas[id]
		if !rep.allow() {
			continue
		}
		if attempts > 0 {
			f.stats.failovers.Add(1)
			f.opts.Sleep(f.jitter())
		}
		attempts++
		switch f.dispatch(rep, w, r) {
		case servedOK:
			rep.success()
			return
		case failedDirty:
			// The client already holds part of a response; surfacing the
			// truncation honestly beats replaying the request elsewhere.
			rep.failure()
			return
		case failedClean:
			rep.failure()
		}
	}
	// Every admitted attempt failed clean, or no replica would accept the
	// key at all (fleet-wide ejection): shed with Retry-After, the same
	// load signal a single overloaded gateway sends.
	f.stats.unavailable.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(f.opts.RetryAfter))
	http.Error(w, "fleet: no replica available", http.StatusServiceUnavailable)
}

// dispatch runs one attempt against one replica, classifying the result
// by whether a verdict reached the wire. A replica panic is contained
// here the same way a detector panic is contained inside the gateway:
// this front must outlive any one replica.
func (f *Front) dispatch(rep *replica, w http.ResponseWriter, r *http.Request) (out dispatchOutcome) {
	if rep.down.Load() {
		return failedClean
	}
	tw := &trackWriter{rw: w}
	defer func() {
		if rec := recover(); rec != nil {
			if tw.wrote {
				out = failedDirty
			} else {
				out = failedClean
			}
		}
	}()
	// Stamped before the dispatch: headers only commit when the replica
	// writes, so a clean failover simply overwrites it.
	w.Header().Set("X-Psigene-Fleet", strconv.Itoa(rep.id)+" "+strconv.FormatUint(f.gen.Load(), 10))
	rep.gw.ServeHTTP(tw, r)
	if !tw.wrote {
		// A handler that returned without writing anything rendered no
		// verdict; treat it like a refused connection.
		return failedClean
	}
	return servedOK
}

// jitter draws the failover backoff: full jitter in [0, RetryBase..RetryMax),
// deterministic in the front's seed. Drawn under the rng lock, slept
// outside it.
func (f *Front) jitter() time.Duration {
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return resilience.Backoff(f.rng, f.opts.RetryBase, f.opts.RetryMax, 0)
}

// activeProbe sweeps every replica's readiness and feeds one breaker
// failure per dead or not-ready replica. Failure-only on purpose: a
// passing probe must not reset a closed breaker's strike count or readmit
// a half-open replica — readmission is earned by a real served request.
func (f *Front) activeProbe() {
	f.stats.probeSweeps.Add(1)
	for _, rep := range f.replicas {
		if rep.down.Load() || !rep.gw.Ready() {
			rep.failure()
		}
	}
}

// trackWriter records whether the wrapped writer committed any bytes or
// headers — the line between a retryable clean failure and a response the
// client already saw part of.
type trackWriter struct {
	rw     http.ResponseWriter
	wrote  bool
	status int
}

func (t *trackWriter) Header() http.Header { return t.rw.Header() }

func (t *trackWriter) WriteHeader(code int) {
	t.wrote = true
	t.status = code
	t.rw.WriteHeader(code)
}

func (t *trackWriter) Write(b []byte) (int, error) {
	if !t.wrote {
		t.wrote = true
		t.status = http.StatusOK
	}
	return t.rw.Write(b)
}
