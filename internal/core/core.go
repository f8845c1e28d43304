// Package core implements pSigene itself: the four-phase pipeline that
// turns a corpus of attack samples and benign traffic into a set of
// generalized SQL-injection signatures, plus the runtime engine that
// matches those signatures against HTTP requests.
//
// Phases (Figure 1 of the paper):
//
//  1. collection — attack requests, typically from internal/crawl;
//  2. feature extraction — internal/feature's 477-candidate catalog,
//     pruned to the observed set (the paper's 159);
//  3. biclustering — internal/cluster's two-way UPGMA with ≥5% selection
//     and black-hole rejection;
//  4. signature generation — one logistic-regression model per bicluster,
//     trained against benign traffic with PCG and pruned (Table VI).
//
// The trained Model implements ids.Detector: a request is normalized, its
// feature counts extracted (the count_all operation of the paper's Bro
// implementation), each signature's sigmoid evaluated, and an alert raised
// when any signature's probability crosses its threshold.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"psigene/internal/cluster"
	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/matrix"
	"psigene/internal/ml"
	"psigene/internal/normalize"
)

// Config tunes the pipeline. Zero values take paper-faithful defaults.
type Config struct {
	// Catalog is the candidate feature set; nil means feature.Catalog().
	Catalog *feature.Set
	// Cluster configures biclustering (5% rule, black holes).
	Cluster cluster.Options
	// Train configures the per-signature logistic regressions.
	Train ml.TrainOptions
	// PruneThreshold is the relative coefficient-importance cutoff for
	// post-training feature pruning (Table VI's biclustering-vs-signature
	// feature counts). 0 means 0.2; negative disables pruning.
	PruneThreshold float64
	// Threshold is the signature decision probability. 0 means 0.5.
	Threshold float64
	// BinaryFeatures clamps counts to presence flags — the ablation the
	// paper reports as "did not produce good results".
	BinaryFeatures bool
	// BenignWeight multiplies the weight of every benign training sample —
	// cost-sensitive training that makes the logistic signatures demand
	// co-occurring evidence instead of a single strong feature, keeping the
	// false-positive rate at the paper's level. 0 means 25; negative
	// disables the reweighting (weight 1).
	BenignWeight float64
	// MaxClusterSamples caps the number of unique samples fed to the
	// quadratic HAC step; the remainder are assigned to the nearest
	// bicluster centroid afterwards and still train the signatures. This is
	// what lets the pipeline scale to the paper's 30,000-sample corpus.
	// 0 means 2500; negative disables the cap.
	MaxClusterSamples int
	// MinAttackSamples is the coverage floor for training on a degraded
	// crawl: Train refuses (ErrInsufficientSamples) when fewer attack
	// samples arrive, so a mostly-failed crawl cannot silently train a
	// near-empty model. 0 means 1 (any non-empty corpus trains).
	MinAttackSamples int
	// Parallelism is the worker count for the training pipeline: feature
	// extraction, the distance kernels inside biclustering, and the
	// per-bicluster logistic regressions. 0 means GOMAXPROCS, 1 forces the
	// serial path. Every parallel stage partitions work into disjoint
	// output regions with unchanged per-entry float accumulation order, so
	// models trained at any Parallelism are bit-identical — the parity
	// tests compare them with ==. Cluster.Parallelism, when left zero,
	// inherits this value.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Catalog == nil {
		cat := feature.Catalog()
		c.Catalog = &cat
	}
	if c.PruneThreshold == 0 {
		c.PruneThreshold = 0.2
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.BenignWeight == 0 {
		c.BenignWeight = 25
	}
	if c.BenignWeight < 0 {
		c.BenignWeight = 1
	}
	if c.MaxClusterSamples == 0 {
		c.MaxClusterSamples = 2500
	}
	if c.MinAttackSamples <= 0 {
		c.MinAttackSamples = 1
	}
	return c
}

// Signature is one generalized signature: a logistic model over the
// discriminating features of one bicluster.
type Signature struct {
	// ID is the bicluster id (Figure 2 numbering).
	ID int
	// SampleWeight is the number of training samples in the bicluster.
	SampleWeight float64
	// BiclusterFeatures is the feature count selected by biclustering
	// (Table VI middle column).
	BiclusterFeatures int
	// Features are the post-pruning feature columns, as indices into the
	// model's observed feature set (Table VI right column counts these).
	Features []int
	// Model is the trained logistic regression over Features.
	Model *ml.LogisticModel

	// The sparse-scoring index: a dense observed-column → weight table
	// (with a presence mask, so columns outside Features contribute
	// nothing) plus the alert label, both built once off the hot path.
	indexOnce sync.Once
	colWeight []float64
	colUsed   []bool
	label     string
}

// ProbabilitySparse evaluates the signature on a sparse observed-feature
// vector (ascending column indices with their nonzero counts). Cost is
// O(request nonzeros): each firing feature indexes the signature's dense
// column→weight table, so benign traffic — which fires almost nothing —
// is scored almost for free, with no per-call allocation. Every scorer —
// serving, threshold tuning, incremental assignment, the ROC figures —
// goes through it.
func (s *Signature) ProbabilitySparse(cols []int, vals []float64) float64 {
	s.buildIndex()
	// Accumulate the dot product first and add the bias afterwards, the
	// association ml.LogisticModel.Predict uses. Features are ascending,
	// so walking cols ascending adds Predict's nonzero terms in Predict's
	// order and both produce identical bits.
	var dot float64
	w, used := s.colWeight, s.colUsed
	for k, j := range cols {
		if j < len(w) && used[j] {
			dot += w[j] * vals[k]
		}
	}
	return ml.Sigmoid(s.Model.Bias + dot)
}

// Label returns the identifier Inspect reports for this signature.
func (s *Signature) Label() string {
	s.buildIndex()
	return s.label
}

// buildIndex lazily builds the dense observed-column → model-weight table
// and the alert label. The sync.Once makes it safe under
// ids.ParallelEvaluate's concurrent Inspect calls.
func (s *Signature) buildIndex() {
	s.indexOnce.Do(func() {
		maxCol := -1
		for _, j := range s.Features {
			if j > maxCol {
				maxCol = j
			}
		}
		w := make([]float64, maxCol+1)
		used := make([]bool, maxCol+1)
		for k, j := range s.Features {
			w[j] = s.Model.Weights[k]
			used[j] = true
		}
		s.colWeight, s.colUsed = w, used
		s.label = fmt.Sprintf("psigene:%d", s.ID)
	})
}

// Model is a trained pSigene signature set, an immutable value: WithSignatures,
// WithThresholds and Trainer.Update derive new Models that share its
// *Signatures and extractor. Training state lives on Trainer.
type Model struct {
	// Features is the observed (pruned) feature set — the paper's 159.
	Features feature.Set
	// Signatures are the generalized signatures in bicluster order.
	Signatures []*Signature
	// Biclustering preserves the full clustering result for reporting
	// (Figure 2, Table VI).
	Biclustering *cluster.Result
	// Stats captures training-corpus statistics.
	Stats TrainStats

	thresholds []float64 // per-signature alert cutoffs, never written once built
	extractor  *feature.Extractor
	binary     bool
}

// extraSample is one incrementally added attack sample: its sparse
// observed-feature vector (ascending columns with their nonzero values)
// and multiplicity.
type extraSample struct {
	cols []int
	vals []float64
	w    float64
}

var _ ids.Detector = (*Model)(nil)

// TrainStats records corpus statistics the paper reports in §II.
type TrainStats struct {
	// AttackSamples and UniqueAttackSamples count the training corpus
	// before and after normalization dedup.
	AttackSamples, UniqueAttackSamples int
	// BenignSamples counts the benign training requests.
	BenignSamples int
	// CandidateFeatures and ObservedFeatures are the 477 → 159 reduction.
	CandidateFeatures, ObservedFeatures int
	// ZeroFraction and OneFraction describe matrix sparsity (paper: ~85%
	// zeros, ~6% ones).
	ZeroFraction, OneFraction float64
	// CopheneticCorrelation validates the row dendrogram (paper: 0.92).
	CopheneticCorrelation float64
}

// Errors returned by Train.
var (
	ErrNoAttacks = errors.New("core: no attack training samples")
	ErrNoBenign  = errors.New("core: no benign training samples")
	// ErrInsufficientSamples means the attack corpus is non-empty but below
	// Config.MinAttackSamples — typically a crawl that lost most of its
	// portals. Callers choose between lowering the floor and recrawling.
	ErrInsufficientSamples = errors.New("core: attack corpus below the configured sample floor")
)

// Train runs the full pipeline on labeled training traffic.
func Train(attacks, benign []httpx.Request, cfg Config) (*Model, error) {
	t, err := NewTrainer(attacks, benign, cfg)
	if err != nil {
		return nil, err
	}
	return t.Model(), nil
}

// NewTrainer runs the full pipeline on labeled training traffic and keeps
// the training state incremental updates re-learn from.
func NewTrainer(attacks, benign []httpx.Request, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if len(attacks) == 0 {
		return nil, ErrNoAttacks
	}
	if len(attacks) < cfg.MinAttackSamples {
		return nil, fmt.Errorf("%w: %d < %d", ErrInsufficientSamples, len(attacks), cfg.MinAttackSamples)
	}
	if len(benign) == 0 {
		return nil, ErrNoBenign
	}

	// Phase 2: normalize, dedupe, extract, prune unobserved features.
	normAttacks := make([]string, len(attacks))
	for i, r := range attacks {
		normAttacks[i] = normalize.Normalize(r.Payload())
	}
	uniq, weights := feature.Dedupe(normAttacks)

	ex, err := feature.NewExtractor(*cfg.Catalog)
	if err != nil {
		return nil, fmt.Errorf("extractor: %w", err)
	}
	full, err := ex.SparseMatrixParallel(uniq, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("feature matrix: %w", err)
	}
	if cfg.BinaryFeatures {
		full.Binaryize()
	}
	observed, obsSet, _, err := feature.PruneUnobserved(full, *cfg.Catalog)
	if err != nil {
		return nil, fmt.Errorf("prune unobserved: %w", err)
	}
	// Drop overlapping features (identical observed columns), the second
	// half of the paper's 477 -> 159 reduction.
	observed, obsSet, _, err = feature.PruneDuplicateColumns(observed, obsSet)
	if err != nil {
		return nil, fmt.Errorf("prune duplicates: %w", err)
	}
	obsEx, err := feature.NewExtractor(obsSet)
	if err != nil {
		return nil, fmt.Errorf("observed extractor: %w", err)
	}
	zeroFrac, oneFrac := observed.Sparsity()

	// Phase 3: biclustering, on a capped subsample when the unique corpus
	// exceeds the quadratic-HAC budget; leftover samples are assigned to
	// the nearest bicluster centroid below.
	clusterRows := observed
	clusterWeights := weights
	var clusterIdx []int // nil when no cap applied
	if cfg.MaxClusterSamples > 0 && observed.Rows() > cfg.MaxClusterSamples {
		stride := observed.Rows() / cfg.MaxClusterSamples
		for i := 0; i < observed.Rows() && len(clusterIdx) < cfg.MaxClusterSamples; i += stride {
			clusterIdx = append(clusterIdx, i)
		}
		sub, err := observed.SelectRows(clusterIdx)
		if err != nil {
			return nil, err
		}
		subW := make([]float64, len(clusterIdx))
		for k, i := range clusterIdx {
			subW[k] = weights[i]
		}
		clusterRows, clusterWeights = sub, subW
	}
	// The biclustering distance kernels inherit the pipeline knob unless
	// the caller pinned their own worker count (both are bit-identical at
	// any setting, so this only affects wall clock).
	clOpts := cfg.Cluster
	if clOpts.Parallelism == 0 {
		clOpts.Parallelism = cfg.Parallelism
	}
	bic, err := cluster.Run(clusterRows, clusterWeights, clOpts)
	if err != nil {
		return nil, fmt.Errorf("biclustering: %w", err)
	}
	if clusterIdx != nil {
		remapBiclusters(bic, clusterIdx)
		assignLeftovers(bic, observed, weights, clusterIdx)
	}

	// Phase 4: one logistic signature per active bicluster, trained against
	// the benign corpus.
	normBenign := make([]string, len(benign))
	for i, r := range benign {
		normBenign[i] = normalize.Normalize(r.Payload())
	}
	benignUniq, benignW := feature.Dedupe(normBenign)
	benignMat, err := obsEx.SparseMatrixParallel(benignUniq, cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("benign matrix: %w", err)
	}
	if cfg.BinaryFeatures {
		benignMat.Binaryize()
	}

	m := &Model{
		Features:     obsSet,
		Biclustering: bic,
		Stats: TrainStats{
			AttackSamples:         len(attacks),
			UniqueAttackSamples:   len(uniq),
			BenignSamples:         len(benign),
			CandidateFeatures:     cfg.Catalog.Len(),
			ObservedFeatures:      obsSet.Len(),
			ZeroFraction:          zeroFrac,
			OneFraction:           oneFrac,
			CopheneticCorrelation: bic.CopheneticCorrelation,
		},
		extractor: obsEx,
		binary:    cfg.BinaryFeatures,
	}

	sigs, err := trainSignatures(observed, weights, benignMat, benignW, bic.ActiveBiclusters(), nil, cfg)
	if err != nil {
		return nil, err
	}
	m.Signatures = sigs
	if len(m.Signatures) == 0 {
		return nil, errors.New("core: biclustering produced no active clusters")
	}
	m.thresholds = make([]float64, len(sigs))
	for i := range m.thresholds {
		m.thresholds[i] = cfg.Threshold
	}
	return &Trainer{
		model:     m,
		cfg:       cfg,
		observed:  observed,
		weights:   weights,
		benignMat: benignMat,
		benignW:   benignW,
	}, nil
}

// trainSignature fits the bicluster's logistic model: bicluster samples
// (label 1) against the benign corpus (label 0), restricted to the
// bicluster's features, followed by coefficient pruning and a refit.
func trainSignature(observed matrix.RowMatrix, weights []float64, benignMat matrix.RowMatrix, benignW []float64, b cluster.Bicluster, extras []extraSample, cfg Config) (*Signature, error) {
	feats := b.Features
	if len(feats) == 0 {
		return nil, errors.New("bicluster has no discriminating features")
	}

	attackSub, err := observed.SelectRows(b.RowLeaves)
	if err != nil {
		return nil, err
	}
	attackCols, err := attackSub.SelectCols(feats)
	if err != nil {
		return nil, err
	}
	benignCols, err := benignMat.SelectCols(feats)
	if err != nil {
		return nil, err
	}

	// Stitch the per-signature CSR training matrix block by block:
	// bicluster rows (label 1), incrementally added samples (label 1),
	// benign corpus (label 0).
	n := attackCols.Rows() + len(extras) + benignCols.Rows()
	bld := matrix.NewSparseBuilder(len(feats))
	y := make([]float64, n)
	w := make([]float64, n)
	row := 0
	for i := 0; i < attackCols.Rows(); i++ {
		bld.AppendRowOf(attackCols, i)
		y[row] = 1
		w[row] = weights[b.RowLeaves[i]]
		row++
	}
	var lcols []int
	var lvals []float64
	for _, e := range extras {
		// Map the row's global observed columns onto the signature's local
		// ones. Both lists ascend, so one merge pass keeps the order.
		lcols, lvals = lcols[:0], lvals[:0]
		k := 0
		for n, j := range e.cols {
			for k < len(feats) && feats[k] < j {
				k++
			}
			if k < len(feats) && feats[k] == j {
				lcols = append(lcols, k)
				lvals = append(lvals, e.vals[n])
			}
		}
		if err := bld.AppendSparse(lcols, lvals); err != nil {
			return nil, err
		}
		y[row] = 1
		w[row] = e.w
		row++
	}
	for i := 0; i < benignCols.Rows(); i++ {
		bld.AppendRowOf(benignCols, i)
		w[row] = benignW[i] * cfg.BenignWeight
		row++
	}
	x := bld.Build()

	model, err := ml.TrainLogistic(x, y, w, cfg.Train)
	if err != nil {
		return nil, err
	}
	kept := feats
	if cfg.PruneThreshold > 0 {
		pr, err := ml.Prune(x, y, w, model, cfg.Train, cfg.PruneThreshold)
		if err != nil {
			return nil, err
		}
		model = pr.Model
		kept = make([]int, len(pr.Kept))
		for i, k := range pr.Kept {
			kept[i] = feats[k]
		}
	}
	return &Signature{
		ID:                b.ID,
		SampleWeight:      b.SampleWeight,
		BiclusterFeatures: len(feats),
		Features:          kept,
		Model:             model,
	}, nil
}

// Name implements ids.Detector.
func (m *Model) Name() string {
	return fmt.Sprintf("pSigene(%d signatures)", len(m.Signatures))
}

// SparseVector runs phase-2 extraction on one request: normalize the payload
// and count every observed feature (the paper's count_all over each
// signature's regexes, done once for all). It returns only the features that
// fired: ascending observed-column indices with their counts. Allocation is
// O(nonzeros), which for benign traffic is typically a handful of entries
// out of the full observed set.
func (m *Model) SparseVector(req httpx.Request) (cols []int, vals []float64) {
	return m.sparseVector(normalize.Normalize(req.Payload()))
}

// sparseVector extracts one normalized sample, clamping counts to presence
// flags on a BinaryFeatures model.
func (m *Model) sparseVector(sample string) (cols []int, vals []float64) {
	cols, vals = m.extractor.SparseVector(sample)
	if m.binary {
		for i := range vals {
			vals[i] = 1
		}
	}
	return cols, vals
}

// Probabilities returns each signature's probability for the request, in
// signature order.
func (m *Model) Probabilities(req httpx.Request) []float64 {
	cols, vals := m.SparseVector(req)
	out := make([]float64, len(m.Signatures))
	for i, s := range m.Signatures {
		out[i] = s.ProbabilitySparse(cols, vals)
	}
	return out
}

// scoreScratch is the per-call serving state Inspect borrows from a pool:
// the payload view, the normalization buffers, and (checked out separately,
// because it is sized to the model's extractor) the feature scratch. With
// all three pooled, inspecting a request that raises no alert performs zero
// heap allocations at steady state — the fast-path allocation tests pin this.
type scoreScratch struct {
	payload []byte
	norm    normalize.Buffer
}

// scorePool holds scoreScratch values. It is package-level rather than a
// Model field so that every Model — derived copies and models restored by
// LoadArtifact alike — shares the same warm pool.
var scorePool = sync.Pool{New: func() any { return new(scoreScratch) }}

// Inspect implements ids.Detector: alert when any signature's probability
// crosses its threshold. Matching goes through the sparse feature vector, so
// per-request cost scales with the number of firing features rather than the
// observed-feature count. All intermediate state is pooled; serving loops
// that want to skip even the pool round-trip hold a Session instead.
func (m *Model) Inspect(req httpx.Request) ids.Verdict {
	ss := scorePool.Get().(*scoreScratch)
	fs := m.extractor.AcquireScratch()
	v := m.inspect(req, ss, fs)
	m.extractor.ReleaseScratch(fs)
	scorePool.Put(ss)
	return v
}

// inspect is the allocation-free scoring core shared by Inspect and
// Session.Inspect. It only allocates when the verdict is an alert (the
// Matched list escapes to the caller).
func (m *Model) inspect(req httpx.Request, ss *scoreScratch, fs *feature.Scratch) ids.Verdict {
	ss.payload = req.AppendPayload(ss.payload[:0])
	cols, vals := m.extractor.SparseInto(ss.norm.NormalizeBytes(ss.payload), fs)
	if m.binary {
		for i := range vals {
			vals[i] = 1
		}
	}
	var v ids.Verdict
	for i, s := range m.Signatures {
		if p := s.ProbabilitySparse(cols, vals); p >= m.thresholds[i] {
			v.Alert = true
			v.Score++
			v.Matched = append(v.Matched, s.Label())
		}
	}
	return v
}

// Session is a checked-out serving context: one goroutine's scratch for
// repeated Inspect calls with no pool traffic at all. It implements
// ids.InspectSession; verdicts are identical to Model.Inspect.
type Session struct {
	m  *Model
	ss *scoreScratch
	fs *feature.Scratch
}

var _ ids.SessionDetector = (*Model)(nil)

// NewSession implements ids.SessionDetector.
func (m *Model) NewSession() ids.InspectSession {
	return &Session{
		m:  m,
		ss: scorePool.Get().(*scoreScratch),
		fs: m.extractor.AcquireScratch(),
	}
}

// Inspect implements ids.InspectSession.
func (s *Session) Inspect(req httpx.Request) ids.Verdict {
	return s.m.inspect(req, s.ss, s.fs)
}

// Close implements ids.InspectSession, returning the scratch to the pools.
func (s *Session) Close() {
	s.m.extractor.ReleaseScratch(s.fs)
	scorePool.Put(s.ss)
	s.ss, s.fs = nil, nil
}

// PrefilterStats returns the extractor's cumulative prefilter counters —
// how many regex evaluations the staged fast path skipped.
func (m *Model) PrefilterStats() feature.PrefilterStats { return m.extractor.PrefilterStats() }

// WithSignatures returns the model restricted to the given signature IDs and
// their thresholds — how the paper evaluates the 7- vs 9-signature sets.
func (m *Model) WithSignatures(idSet []int) (*Model, error) {
	want := make(map[int]bool, len(idSet))
	for _, id := range idSet {
		want[id] = true
	}
	out := *m
	out.Signatures, out.thresholds = nil, nil
	for i, s := range m.Signatures {
		if want[s.ID] {
			out.Signatures = append(out.Signatures, s)
			out.thresholds = append(out.thresholds, m.thresholds[i])
			delete(want, s.ID)
		}
	}
	if len(want) != 0 {
		missing := make([]int, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Ints(missing)
		return nil, fmt.Errorf("core: unknown signature ids %v", missing)
	}
	if len(out.Signatures) == 0 {
		return nil, errors.New("core: no signatures selected")
	}
	return &out, nil
}

// WithThresholds returns a copy of the model alerting at the given
// per-signature thresholds (Signatures order): a new operating point, as
// TuneThresholds picks or a ROC sweep visits.
func (m *Model) WithThresholds(ts []float64) (*Model, error) {
	if len(ts) != len(m.Signatures) {
		return nil, fmt.Errorf("core: %d thresholds for %d signatures", len(ts), len(m.Signatures))
	}
	out := *m
	out.thresholds = append([]float64(nil), ts...)
	return &out, nil
}

// Thresholds returns a copy of the per-signature alert thresholds, in
// Signatures order.
func (m *Model) Thresholds() []float64 { return append([]float64(nil), m.thresholds...) }

// SignatureFeatures returns the post-pruning feature definitions of one
// signature (Table III for signature 6).
func (m *Model) SignatureFeatures(id int) ([]feature.Feature, error) {
	for _, s := range m.Signatures {
		if s.ID != id {
			continue
		}
		out := make([]feature.Feature, len(s.Features))
		for i, j := range s.Features {
			out[i] = m.Features.Features[j]
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: no signature %d", id)
}
