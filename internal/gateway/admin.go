package gateway

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"

	"psigene/internal/admission"
	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/ids"
	"psigene/internal/resilience"
)

// AdminConfig configures the control surface returned by Admin.
type AdminConfig struct {
	// Token, when non-empty, is a bearer token required on every admin
	// request (`Authorization: Bearer <token>`). Compared in constant
	// time; wrong or missing credentials answer 401.
	Token string
	// ModelDir confines reloads and canary starts: their `?path=`
	// parameter is the local name of a model artifact directory
	// resolved inside this directory, never an arbitrary filesystem
	// path. Empty disables /-/reload and /-/canary/start entirely.
	ModelDir string
	// DenyDir confines denylist reloads the same way ModelDir confines
	// model reloads. Empty disables POST /-/denylist/reload.
	DenyDir string
	// Log receives reload failure detail. Loader errors are logged here,
	// not echoed to clients — the error text is a file-existence and
	// parse oracle. Default io.Discard.
	Log io.Writer
}

// Admin returns the /-/ control-surface handler. It is deliberately NOT
// mounted on the proxy's data path: serve it on a separate listener
// (psigened defaults to loopback-only) so public traffic can never reach
// reload or statz and no upstream route is shadowed by the /-/ prefix.
// The endpoints bypass admission control on purpose: health checks and
// reloads must work while the data path is saturated or draining.
func (g *Gateway) Admin(cfg AdminConfig) http.Handler {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	return &adminHandler{g: g, cfg: cfg}
}

type adminHandler struct {
	g   *Gateway
	cfg AdminConfig
}

func (h *adminHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Token != "" && !h.authorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="psigened admin"`)
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	g := h.g
	switch r.URL.Path {
	case "/-/healthz":
		// Liveness: the process is up and serving this handler.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case "/-/readyz":
		// Readiness: drop out of rotation while draining.
		if g.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	case "/-/reload":
		h.serveReload(w, r)
	case "/-/statz":
		writeJSON(w, g.Snapshot())
	case "/-/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, g.Snapshot())
	case "/-/canary":
		rep, ok := g.CanaryReport()
		if !ok {
			http.Error(w, "no canary active", http.StatusNotFound)
			return
		}
		writeJSON(w, rep)
	case "/-/canary/start":
		h.serveCanaryStart(w, r)
	case "/-/denylist":
		ctrl := g.opts.Admission
		if ctrl == nil {
			http.Error(w, "admission control not configured", http.StatusNotFound)
			return
		}
		writeJSON(w, ctrl.Stats())
	case "/-/denylist/reload":
		h.serveDenylistReload(w, r)
	case "/-/canary/promote":
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		gen, err := g.PromoteCanary()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		det, _ := g.Detector()
		writeJSON(w, map[string]any{"generation": gen, "detector": det.Name()})
	case "/-/canary/abort":
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if !g.AbortCanary() {
			http.Error(w, "no canary active", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"aborted": true})
	default:
		http.NotFound(w, r)
	}
}

// authorized checks the bearer token in constant time.
func (h *adminHandler) authorized(r *http.Request) bool {
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) <= len(prefix) || auth[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(h.cfg.Token)) == 1
}

// serveReload swaps in a model named by ?path=, confined to ModelDir.
// Failure detail goes to the admin log only; the response carries a
// generic rejection so the endpoint is not a file-existence/parse oracle.
func (h *adminHandler) serveReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if h.cfg.ModelDir == "" {
		http.Error(w, "reload disabled: no model dir configured", http.StatusForbidden)
		return
	}
	name := r.URL.Query().Get("path")
	if name == "" {
		http.Error(w, "reload needs ?path=<name>", http.StatusBadRequest)
		return
	}
	// The parameter is a name inside ModelDir, not a path: absolute paths
	// and ..-traversal are rejected before touching the filesystem.
	if !filepath.IsLocal(name) {
		http.Error(w, "reload path must be a local name inside the model dir", http.StatusBadRequest)
		return
	}
	gen, err := h.g.ReloadModel(filepath.Join(h.cfg.ModelDir, name))
	if err != nil {
		fmt.Fprintf(h.cfg.Log, "psigened: reload %q: %v\n", name, err)
		http.Error(w, "reload rejected; previous model still serving (see server log)", http.StatusInternalServerError)
		return
	}
	det, _ := h.g.Detector()
	writeJSON(w, map[string]any{"generation": gen, "detector": det.Name()})
}

// serveDenylistReload swaps the admission controller's denylist from a
// file named by ?path=, confined to DenyDir — the validate-probe-swap
// idiom of model reloads applied to the denied-address trie. A file with
// any malformed CIDR line is rejected whole (a silently dropped entry is
// an address quietly allowed through), the previous trie keeps serving,
// and the response is a generic 400: parse detail goes to the admin log
// only, never echoed, so the endpoint is not a file-content oracle.
func (h *adminHandler) serveDenylistReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	ctrl := h.g.opts.Admission
	if ctrl == nil {
		http.Error(w, "admission control not configured", http.StatusForbidden)
		return
	}
	if h.cfg.DenyDir == "" {
		http.Error(w, "denylist reload disabled: no deny dir configured", http.StatusForbidden)
		return
	}
	name := r.URL.Query().Get("path")
	if name == "" {
		http.Error(w, "denylist reload needs ?path=<name>", http.StatusBadRequest)
		return
	}
	if !filepath.IsLocal(name) {
		http.Error(w, "denylist path must be a local name inside the deny dir", http.StatusBadRequest)
		return
	}
	if err := ctrl.ReloadDenylistFile(filepath.Join(h.cfg.DenyDir, name)); err != nil {
		h.g.stats.denyReloadFails.Add(1)
		fmt.Fprintf(h.cfg.Log, "psigened: denylist reload %q: %v\n", name, err)
		http.Error(w, "denylist rejected; previous denylist still serving (see server log)", http.StatusBadRequest)
		return
	}
	set, gen := ctrl.Denylist()
	writeJSON(w, map[string]any{"entries": set.Len(), "generation": gen})
}

// serveCanaryStart begins shadow-scoring with a candidate named by
// ?path= (a model artifact directory inside ModelDir, same
// confinement as reload), at ?fraction= of traffic (default 1) under
// ?seed=. Failure detail is logged, not echoed, for the same
// oracle-avoidance reason as reload.
func (h *adminHandler) serveCanaryStart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if h.cfg.ModelDir == "" {
		http.Error(w, "canary disabled: no model dir configured", http.StatusForbidden)
		return
	}
	name := r.URL.Query().Get("path")
	if name == "" {
		http.Error(w, "canary needs ?path=<name>", http.StatusBadRequest)
		return
	}
	if !filepath.IsLocal(name) {
		http.Error(w, "canary path must be a local name inside the model dir", http.StatusBadRequest)
		return
	}
	cfg := CanaryConfig{Fraction: 1}
	if f := r.URL.Query().Get("fraction"); f != "" {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			http.Error(w, "bad fraction", http.StatusBadRequest)
			return
		}
		cfg.Fraction = v
	}
	if s := r.URL.Query().Get("seed"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			http.Error(w, "bad seed", http.StatusBadRequest)
			return
		}
		cfg.Seed = v
	}
	m, man, err := core.LoadArtifact(filepath.Join(h.cfg.ModelDir, name))
	if err != nil {
		fmt.Fprintf(h.cfg.Log, "psigened: canary %q: %v\n", name, err)
		http.Error(w, "canary rejected; no candidate loaded (see server log)", http.StatusInternalServerError)
		return
	}
	cfg.Version, cfg.Hash = man.Version, man.ModelSHA256
	if err := h.g.StartCanary(m, cfg); err != nil {
		fmt.Fprintf(h.cfg.Log, "psigened: canary %q: %v\n", name, err)
		http.Error(w, "canary rejected (see server log)", http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{"canary": man.Version, "fraction": cfg.Fraction, "seed": cfg.Seed})
}

// ReloadModel loads a model artifact directory (hash-verified, see
// core.LoadArtifact), probes it, and only then swaps it in, tagged with
// the artifact version and content hash from its manifest. Every failure
// path leaves the previous detector serving — a corrupt or half-written
// model push is a logged non-event, not an outage. Reloads are serialized so concurrent pushes cannot
// interleave load and swap. Returns the new generation on success.
func (g *Gateway) ReloadModel(path string) (uint64, error) {
	g.reloadMu.Lock()
	defer g.reloadMu.Unlock()
	m, man, err := core.LoadArtifact(path)
	if err != nil {
		g.stats.reloadFailures.Add(1)
		return 0, fmt.Errorf("gateway: reload rejected: %w", err)
	}
	return g.SwapTagged(m, man.Version, man.ModelSHA256)
}

// Swap installs a new detector after probing it, untagged. The generation
// counter increments only on successful swaps, so X-Psigene-Gen response
// headers prove which signature set scored a given request.
func (g *Gateway) Swap(det ids.Detector) (uint64, error) {
	return g.SwapTagged(det, "", "")
}

// SwapTagged installs a new detector after probing it, recording the
// artifact version and content hash it came from so X-Psigene-Gen,
// /-/statz and /-/metrics identify the serving model.
func (g *Gateway) SwapTagged(det ids.Detector, version, hash string) (uint64, error) {
	if det == nil {
		g.stats.reloadFailures.Add(1)
		return 0, fmt.Errorf("gateway: reload rejected: nil detector")
	}
	if err := probe(det); err != nil {
		g.stats.reloadFailures.Add(1)
		return 0, fmt.Errorf("gateway: reload rejected: %w", err)
	}
	gen := g.gen.Add(1)
	g.state.Store(newState(det, gen, version, hash))
	g.stats.reloads.Add(1)
	return gen, nil
}

// Drain stops admitting new requests and waits for in-flight ones to
// finish by acquiring every semaphore token: once all MaxInFlight tokens
// are held, nothing is mid-request. Returns ctx.Err() if the context
// expires first; already-admitted requests keep running either way.
func (g *Gateway) Drain(ctx context.Context) error {
	g.draining.Store(true)
	for i := 0; i < cap(g.sem); i++ {
		select {
		case g.sem <- struct{}{}:
		case <-ctx.Done():
			// Release what we grabbed so a later Drain can retry.
			for ; i > 0; i-- {
				<-g.sem
			}
			return ctx.Err()
		}
	}
	for i := 0; i < cap(g.sem); i++ {
		<-g.sem
	}
	return nil
}

// Snapshot is the /-/statz document: counters, breaker state, and the
// scoring-latency window summarized with the same percentile machinery
// the evaluation harness uses.
type Snapshot struct {
	Generation      uint64                      `json:"generation"`
	Detector        string                      `json:"detector"`
	ModelVersion    string                      `json:"modelVersion,omitempty"`
	ModelSHA256     string                      `json:"modelSha256,omitempty"`
	Policy          string                      `json:"policy"`
	Draining        bool                        `json:"draining"`
	Total           int64                       `json:"total"`
	Shed            int64                       `json:"shed"`
	TooLarge        int64                       `json:"tooLarge"`
	BodyErrors      int64                       `json:"bodyErrors"`
	Blocked         int64                       `json:"blocked"`
	Forwarded       int64                       `json:"forwarded"`
	ScorePanics     int64                       `json:"scorePanics"`
	FailedOpen      int64                       `json:"failedOpen"`
	FailedClosed    int64                       `json:"failedClosed"`
	UpstreamErrors  int64                       `json:"upstreamErrors"`
	BreakerRejected int64                       `json:"breakerRejected"`
	BudgetSpent     int64                       `json:"budgetSpent"`
	Reloads         int64                       `json:"reloads"`
	ReloadFailures  int64                       `json:"reloadFailures"`
	Breaker         *resilience.BreakerSnapshot `json:"breaker,omitempty"`
	ScoringLatency  ids.LatencyStats            `json:"scoringLatency"`
	Canary          *CanaryReport               `json:"canary,omitempty"`
	// Scored counts requests that reached the detector; Prefilter, present
	// when the serving detector exposes the staged fast path, reports its
	// regex-gating effectiveness. AllocsPerRequest is the process's heap
	// allocation growth since the gateway was built divided by Scored —
	// approximate (the whole process allocates, not only scoring) but a
	// faithful trend gauge for the allocation-free serving contract.
	Scored           int64                   `json:"scored"`
	Prefilter        *feature.PrefilterStats `json:"prefilter,omitempty"`
	AllocsPerRequest float64                 `json:"allocsPerRequest"`
	// Per-client admission outcomes (see internal/admission): Denied are
	// denylist 403s, RateLimited and PenaltyBoxed are the two 429 shapes,
	// AdmissionPanics are controller failures that failed open to the
	// global semaphore, DenyReloadFailures are rejected denylist pushes.
	// Admission carries the controller's own counters (LRU occupancy,
	// evictions, denylist size and generation) when admission is enabled.
	Denied             int64            `json:"denied"`
	RateLimited        int64            `json:"rateLimited"`
	PenaltyBoxed       int64            `json:"penaltyBoxed"`
	AdmissionPanics    int64            `json:"admissionPanics"`
	DenyReloadFailures int64            `json:"denyReloadFailures"`
	Admission          *admission.Stats `json:"admission,omitempty"`
}

// prefilterReporter is implemented by detectors that expose staged
// fast-path counters (core.Model does).
type prefilterReporter interface {
	PrefilterStats() feature.PrefilterStats
}

// Snapshot assembles the current stats document.
func (g *Gateway) Snapshot() Snapshot {
	state := g.state.Load()
	s := Snapshot{
		Generation:      state.gen,
		Detector:        state.det.Name(),
		ModelVersion:    state.version,
		ModelSHA256:     state.hash,
		Policy:          g.opts.Policy.String(),
		Draining:        g.draining.Load(),
		Total:           g.stats.total.Load(),
		Shed:            g.stats.shed.Load(),
		TooLarge:        g.stats.tooLarge.Load(),
		BodyErrors:      g.stats.bodyErrors.Load(),
		Blocked:         g.stats.blocked.Load(),
		Forwarded:       g.stats.forwarded.Load(),
		ScorePanics:     g.stats.scorePanics.Load(),
		FailedOpen:      g.stats.failedOpen.Load(),
		FailedClosed:    g.stats.failedClosed.Load(),
		UpstreamErrors:  g.stats.upstreamErrors.Load(),
		BreakerRejected: g.stats.breakerRejected.Load(),
		BudgetSpent:     g.stats.budgetSpent.Load(),
		Reloads:         g.stats.reloads.Load(),
		ReloadFailures:  g.stats.reloadFailures.Load(),
		Scored:          g.stats.scored.Load(),
		ScoringLatency:  ids.SummarizeLatency(g.latencyWindow()),

		Denied:             g.stats.denied.Load(),
		RateLimited:        g.stats.rateLimited.Load(),
		PenaltyBoxed:       g.stats.penaltyBoxed.Load(),
		AdmissionPanics:    g.stats.admissionPanics.Load(),
		DenyReloadFailures: g.stats.denyReloadFails.Load(),
	}
	if ctrl := g.opts.Admission; ctrl != nil {
		as := ctrl.Stats()
		s.Admission = &as
	}
	if pr, ok := state.det.(prefilterReporter); ok {
		ps := pr.PrefilterStats()
		s.Prefilter = &ps
	}
	if s.Scored > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocsPerRequest = float64(ms.Mallocs-g.baseMallocs) / float64(s.Scored)
	}
	if g.breaker != nil {
		g.mu.Lock()
		snap := g.breaker.Snapshot()
		g.mu.Unlock()
		s.Breaker = &snap
	}
	if rep, ok := g.CanaryReport(); ok {
		s.Canary = &rep
	}
	return s
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
