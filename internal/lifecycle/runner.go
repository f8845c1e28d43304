package lifecycle

import (
	"fmt"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/crawl"
	"psigene/internal/gateway"
	"psigene/internal/httpx"
	"psigene/internal/normalize"
)

// A Source feeds each lifecycle round its fresh attack samples. round is
// 1-based and strictly increasing, so sources can vary their output per
// round deterministically (new seed, next portal) without any clock.
type Source interface {
	Fetch(round int) ([]httpx.Request, error)
}

// CrawlSource crawls one portal per fetch, reusing the crawl package's
// checkpoint machinery: every fetch persists progress to CheckpointPath,
// and a fetch that finds an unfinished checkpoint resumes it instead of
// restarting — a faulty portal yields its samples across rounds rather
// than losing them. A fetch that crawls partially (injected faults, dead
// portal) returns what it got with no error; the lifecycle treats a thin
// round like any other.
type CrawlSource struct {
	// URL is the portal base URL; API selects the JSON API crawl instead
	// of the HTML one.
	URL string
	API bool
	// Options configures the crawler. CheckpointEvery defaults to 1 so
	// even a first-page fault loses nothing.
	Options crawl.Options
	// CheckpointPath, when non-empty, persists crawl progress between
	// fetches.
	CheckpointPath string
}

// Fetch implements Source.
func (s *CrawlSource) Fetch(round int) ([]httpx.Request, error) {
	opts := s.Options
	if s.CheckpointPath != "" {
		if opts.CheckpointEvery == 0 {
			opts.CheckpointEvery = 1
		}
		opts.Checkpoint = func(cp *crawl.Checkpoint) error {
			return crawl.SaveCheckpoint(cp, s.CheckpointPath)
		}
	}
	c := crawl.New(opts)

	var res *crawl.Result
	var err error
	resumed := false
	if s.CheckpointPath != "" {
		if cp, cperr := crawl.LoadCheckpoint(s.CheckpointPath); cperr == nil && cp != nil && !cp.Done {
			res, err = c.Resume(cp)
			resumed = true
		}
	}
	if !resumed {
		if s.API {
			res, err = c.CrawlAPI(s.URL)
		} else {
			res, err = c.CrawlHTML(s.URL)
		}
	}
	if res == nil {
		return nil, err
	}
	// A partial crawl is a thin round, not a failure: the checkpoint
	// carries the frontier into the next fetch.
	return res.Samples, nil
}

// GenSource synthesizes fresh attack samples per round from an attackgen
// profile, reseeded per round so every round sees new payloads. It stands
// in for a live portal in tests and the CLI's synthetic mode.
type GenSource struct {
	Profile attackgen.Profile
	Seed    int64
	N       int
}

// Fetch implements Source.
func (s GenSource) Fetch(round int) ([]httpx.Request, error) {
	return attackgen.NewGenerator(s.Profile, s.Seed+int64(round)).Requests(s.N), nil
}

// RoundSources rotates over its members round-robin, one per round —
// the multi-portal schedule the paper's crawler walks.
type RoundSources []Source

// Fetch implements Source.
func (s RoundSources) Fetch(round int) ([]httpx.Request, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("lifecycle: no sources")
	}
	return s[(round-1)%len(s)].Fetch(round)
}

// CanaryOptions sets the canary stage's promotion bars.
type CanaryOptions struct {
	// Fraction and Seed configure the gateway's deterministic traffic
	// sampling (see gateway.CanaryConfig). Fraction 0 means 1.
	Fraction float64
	Seed     int64
	// MinSampled is the minimum shadow-scored request count for a
	// promotion — an unobserved candidate never promotes. Default 1.
	MinSampled int64
	// MaxRegressions caps OldOnly disagreements (requests the serving
	// model alerted on but the candidate missed). NewOnly disagreements
	// — the candidate catching what the old model missed — are the point
	// of retraining and never block. Default 0.
	MaxRegressions int64
}

// RunnerConfig assembles a Runner's policy knobs.
type RunnerConfig struct {
	Gate   GateConfig
	Canary CanaryOptions
	// Tamper, when set, may replace the candidate model just before it
	// is saved — the chaos tests' fault hook for injecting a bad
	// candidate (returning nil keeps the real one). A hook derives the
	// bad model through the candidate's With* methods; the candidate's
	// exported Signatures are shared with later rounds' candidates, so a
	// hook must not write through them.
	Tamper func(round int, candidate *core.Model) *core.Model
}

// Runner drives the continuous lifecycle over a Store, an optional
// serving gateway, and a sample Source. It owns the "master" Trainer —
// the one object that retains training state across rounds; every served
// or gated model is a loaded artifact copy, never the master's own Model.
//
// Rejected rounds keep their samples absorbed in the master (they were
// real observations; rejection judged the resulting model, not the data)
// — the next round's candidate retrains on the cumulative corpus.
type Runner struct {
	store  *Store
	source Source
	cfg    RunnerConfig

	gw     *gateway.Gateway
	master *core.Trainer

	// seen dedupes normalized payloads across rounds; corpus is the
	// cumulative normalized training corpus in first-seen order, whose
	// fingerprint every manifest records.
	seen   map[string]bool
	corpus []string

	round int
}

// NewRunner builds a runner over store and source.
func NewRunner(store *Store, source Source, cfg RunnerConfig) *Runner {
	return &Runner{store: store, source: source, cfg: cfg, seen: make(map[string]bool)}
}

// Bootstrap trains the initial model from scratch, saves it as the
// store's first version and promotes it. The store must be empty.
func (r *Runner) Bootstrap(attacks, benign []httpx.Request, coreCfg core.Config) (core.Manifest, error) {
	if cur, err := r.store.Current(); err != nil {
		return core.Manifest{}, err
	} else if cur != "" {
		return core.Manifest{}, fmt.Errorf("lifecycle: store already has a current model (%s)", cur)
	}
	t, err := core.NewTrainer(attacks, benign, coreCfg)
	if err != nil {
		return core.Manifest{}, fmt.Errorf("lifecycle: bootstrap train: %w", err)
	}
	r.master = t
	r.absorb(attacks)

	version, err := r.store.NextVersion()
	if err != nil {
		return core.Manifest{}, err
	}
	man, err := r.store.SaveCandidate(t.Model(), core.Manifest{
		Version:           version,
		CorpusFingerprint: core.FingerprintStrings(r.corpus),
	})
	if err != nil {
		return man, err
	}
	if err := r.store.SetCurrent(version); err != nil {
		return man, err
	}
	return man, nil
}

// absorb records the normalized payloads of reqs in the dedup set and
// cumulative corpus, returning only the previously unseen requests.
func (r *Runner) absorb(reqs []httpx.Request) []httpx.Request {
	var fresh []httpx.Request
	for _, req := range reqs {
		n := normalize.Normalize(req.Payload())
		if r.seen[n] {
			continue
		}
		r.seen[n] = true
		r.corpus = append(r.corpus, n)
		fresh = append(fresh, req)
	}
	return fresh
}

// AttachGateway connects the serving gateway the canary stage runs
// against. Without one, gate-passing candidates promote directly.
func (r *Runner) AttachGateway(g *gateway.Gateway) { r.gw = g }

// CurrentDetector loads the store's current model — the hash-verified
// artifact copy a gateway should serve — with its manifest.
func (r *Runner) CurrentDetector() (*core.Model, core.Manifest, error) {
	cur, err := r.store.Current()
	if err != nil {
		return nil, core.Manifest{}, err
	}
	if cur == "" {
		return nil, core.Manifest{}, fmt.Errorf("lifecycle: store has no current model")
	}
	return r.store.Load(cur)
}

// Decision is one round's outcome, appended to the store's decision
// journal as a JSON line. Action is one of "promoted", "gate-rejected",
// "canary-rejected", "no-change", "rolled-back".
type Decision struct {
	Round        int                   `json:"round"`
	Action       string                `json:"action"`
	Version      string                `json:"version,omitempty"`
	Parent       string                `json:"parent,omitempty"`
	FreshSamples int                   `json:"freshSamples"`
	Gate         *GateReport           `json:"gate,omitempty"`
	Canary       *gateway.CanaryReport `json:"canary,omitempty"`
}

// Round runs one full lifecycle round: fetch fresh samples, retrain the
// master incrementally, save the candidate artifact, gate it, and — when
// a gateway is attached — canary it under the traffic that replay drives
// before promoting or rejecting. replay is called exactly once per round
// that reaches the canary stage; it should push traffic through the
// gateway and return when done (the chaos tests replay deterministic
// mixes; production would just sleep on live traffic). A rejection at any
// stage leaves the serving model and the store's CURRENT untouched.
func (r *Runner) Round(replay func() error) (*Decision, error) {
	if r.master == nil {
		return nil, fmt.Errorf("lifecycle: runner not bootstrapped")
	}
	r.round++
	d := &Decision{Round: r.round, Action: "no-change"}

	reqs, err := r.source.Fetch(r.round)
	if err != nil && len(reqs) == 0 {
		// A dead source is a skipped round, recorded as such: the
		// lifecycle is a loop, not a pipeline that dies with one portal.
		return d, r.store.appendDecision(d)
	}
	fresh := r.absorb(reqs)
	d.FreshSamples = len(fresh)
	if len(fresh) == 0 {
		return d, r.store.appendDecision(d)
	}

	next, err := r.master.Update(fresh)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: retrain: %w", err)
	}
	r.master = next
	candidate := next.Model()
	if r.cfg.Tamper != nil {
		if t := r.cfg.Tamper(r.round, candidate); t != nil {
			candidate = t
		}
	}

	parent, err := r.store.Current()
	if err != nil {
		return nil, err
	}
	version, err := r.store.NextVersion()
	if err != nil {
		return nil, err
	}
	d.Version, d.Parent = version, parent
	if _, err := r.store.SaveCandidate(candidate, core.Manifest{
		Version:           version,
		Parent:            parent,
		CorpusFingerprint: core.FingerprintStrings(r.corpus),
	}); err != nil {
		return nil, err
	}

	// Gate the loaded artifact copy, not the in-memory object: what is
	// judged is exactly what would serve.
	loaded, man, err := r.store.Load(version)
	if err != nil {
		return nil, err
	}
	gate := RunGate(loaded, version, r.gateConfigFor(parent))
	d.Gate = &gate
	if !gate.Pass {
		d.Action = "gate-rejected"
		return d, r.store.appendDecision(d)
	}

	if r.gw == nil {
		if err := r.store.SetCurrent(version); err != nil {
			return nil, err
		}
		d.Action = "promoted"
		return d, r.store.appendDecision(d)
	}

	// Canary: shadow-score the replayed traffic, then promote or abort.
	canaryCfg := gateway.CanaryConfig{
		Fraction: r.cfg.Canary.Fraction,
		Seed:     r.cfg.Canary.Seed,
		Version:  version,
		Hash:     man.ModelSHA256,
	}
	if err := r.gw.StartCanary(loaded, canaryCfg); err != nil {
		return nil, fmt.Errorf("lifecycle: start canary: %w", err)
	}
	if replay != nil {
		if err := replay(); err != nil {
			r.gw.AbortCanary()
			return nil, fmt.Errorf("lifecycle: canary replay: %w", err)
		}
	}
	rep, ok := r.gw.CanaryReport()
	if !ok {
		return nil, fmt.Errorf("lifecycle: canary vanished mid-round")
	}
	d.Canary = &rep

	minSampled := r.cfg.Canary.MinSampled
	if minSampled == 0 {
		minSampled = 1
	}
	if rep.Panics > 0 || rep.Sampled < minSampled || rep.OldOnly > r.cfg.Canary.MaxRegressions {
		r.gw.AbortCanary()
		d.Action = "canary-rejected"
		return d, r.store.appendDecision(d)
	}
	if _, err := r.gw.PromoteCanary(); err != nil {
		return nil, fmt.Errorf("lifecycle: promote canary: %w", err)
	}
	if err := r.store.SetCurrent(version); err != nil {
		return nil, err
	}
	d.Action = "promoted"
	return d, r.store.appendDecision(d)
}

// gateConfigFor returns the gate config with the subsumed-signature
// allowance pinned to the serving model's own audit count, so only
// regressions fail — unless the caller already set an explicit cap.
func (r *Runner) gateConfigFor(parent string) GateConfig {
	cfg := r.cfg.Gate
	if cfg.MaxSubsumed != nil || parent == "" {
		return cfg
	}
	serving, _, err := r.store.Load(parent)
	if err != nil {
		return cfg
	}
	base := RunGate(serving, parent, baselineAuditConfig(cfg))
	allowance := base.Subsumed
	cfg.MaxSubsumed = &allowance
	return cfg
}

// baselineAuditConfig strips the gate down to the audit-only pass used to
// measure the serving model's baseline subsumption: tiny eval corpora (the
// TPR/FPR numbers are discarded), same probe corpus as the real gate.
func baselineAuditConfig(cfg GateConfig) GateConfig {
	cfg = cfg.fill()
	cfg.AttackTests = 1
	cfg.BenignTests = 1
	return cfg
}

// Rollback demotes CURRENT to its parent version: the parent artifact is
// loaded, swapped into the attached gateway (if any), and CURRENT
// repointed. The demoted artifact stays in the store — rollback rewinds
// the pointer, it does not erase history.
func (r *Runner) Rollback() (*Decision, error) {
	cur, err := r.store.Current()
	if err != nil {
		return nil, err
	}
	if cur == "" {
		return nil, fmt.Errorf("lifecycle: nothing to roll back")
	}
	man, err := r.store.Manifest(cur)
	if err != nil {
		return nil, err
	}
	if man.Parent == "" {
		return nil, fmt.Errorf("lifecycle: %s has no parent to roll back to", cur)
	}
	m, pman, err := r.store.Load(man.Parent)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: load rollback target: %w", err)
	}
	if r.gw != nil {
		if _, err := r.gw.SwapTagged(m, pman.Version, pman.ModelSHA256); err != nil {
			return nil, fmt.Errorf("lifecycle: rollback swap: %w", err)
		}
	}
	if err := r.store.SetCurrent(man.Parent); err != nil {
		return nil, err
	}
	d := &Decision{Round: r.round, Action: "rolled-back", Version: man.Parent, Parent: pman.Parent}
	return d, r.store.appendDecision(d)
}
