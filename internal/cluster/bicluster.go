package cluster

import (
	"fmt"
	"math"
	"sort"

	"psigene/internal/matrix"
)

// Options configures the biclustering procedure.
type Options struct {
	// MinClusterFrac is the minimum fraction of total sample weight a row
	// cluster must cover to be selected (the paper's "rule of 5%").
	// Defaults to 0.05.
	MinClusterFrac float64
	// BlackHoleZeroFrac is the zero-cell fraction above which a bicluster is
	// declared a black hole and excluded from signature generation (the
	// paper's clusters 9 and 10). Defaults to 0.99.
	BlackHoleZeroFrac float64
	// FeatureSupport is the minimum weighted fraction of a cluster's samples
	// in which a feature must be nonzero for the feature to be considered
	// discriminating for that cluster. Defaults to 0.5.
	FeatureSupport float64
	// MaxClusters bounds the number of selected biclusters. Defaults to 32.
	MaxClusters int
	// Linkage selects the HAC update rule for the row clustering. Defaults
	// to LinkageAverage (the paper's UPGMA); the alternatives exist for the
	// linkage ablation.
	Linkage Linkage
	// Parallelism is the worker count for the distance kernels (pairwise
	// row distances and standardized column distances): 0 means GOMAXPROCS,
	// 1 forces the serial path. The parallel kernels fill disjoint regions
	// with unchanged per-entry accumulation order, so the biclustering
	// result is bit-identical for any value.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.MinClusterFrac <= 0 {
		o.MinClusterFrac = 0.05
	}
	if o.BlackHoleZeroFrac <= 0 {
		o.BlackHoleZeroFrac = 0.99
	}
	if o.FeatureSupport <= 0 {
		o.FeatureSupport = 0.15
	}
	if o.MaxClusters <= 0 {
		o.MaxClusters = 32
	}
	if o.Linkage == 0 {
		o.Linkage = LinkageAverage
	}
	return o
}

// Bicluster is one block of the two-way clustering: a subset of samples
// (rows) sharing similar values over a subset of features (columns).
// Biclusters are nonoverlapping in rows and may share features.
type Bicluster struct {
	// ID is 1-based, assigned in heat-map (dendrogram leaf) order, matching
	// the paper's Figure 2 numbering convention.
	ID int
	// RowLeaves indexes the (possibly deduplicated) input rows.
	RowLeaves []int
	// SampleWeight is the total expanded sample count of the cluster.
	SampleWeight float64
	// Features holds the discriminating feature (column) indices.
	Features []int
	// FeatureOrder is the column-dendrogram ordering of Features (heat map).
	FeatureOrder []int
	// ZeroFraction is the weighted fraction of zero cells over all columns.
	ZeroFraction float64
	// BlackHole marks clusters with ZeroFraction above the threshold; no
	// signature is generated for them.
	BlackHole bool
}

// Result is the output of the biclustering step.
type Result struct {
	// RowDendrogram is the sample-axis tree.
	RowDendrogram *Dendrogram
	// ColDendrogram is the feature-axis tree over the full matrix (used to
	// order heat-map columns).
	ColDendrogram *Dendrogram
	// Biclusters are the selected clusters in heat-map order, including
	// black holes.
	Biclusters []Bicluster
	// Unclustered are row leaves not covered by any selected bicluster
	// (noise the paper notes as tolerated).
	Unclustered []int
	// CopheneticCorrelation validates the row tree against the original
	// distances (paper: 0.92).
	CopheneticCorrelation float64
}

// ActiveBiclusters returns the biclusters that are not black holes — the
// ones signatures are generated for.
func (r *Result) ActiveBiclusters() []Bicluster {
	out := make([]Bicluster, 0, len(r.Biclusters))
	for _, b := range r.Biclusters {
		if !b.BlackHole {
			out = append(out, b)
		}
	}
	return out
}

// Run performs the paper's two-way biclustering on the sample×feature
// matrix m (dense or CSR): UPGMA over rows, ≥5% cluster selection,
// black-hole detection, then per-cluster discriminating-feature
// identification with UPGMA column ordering. weights gives row
// multiplicities (nil for all ones).
func Run(m matrix.RowMatrix, weights []float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if m.Rows() < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 rows, have %d", m.Rows())
	}
	if m.Cols() < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 column")
	}

	// Row clustering runs on the raw count matrix: z-scoring inflates
	// rare-feature dimensions and flattens the family structure, so the
	// standardization the paper describes is applied only for the heat-map
	// display and for the column (feature-profile) clustering below.
	// Standardization is *virtual*: only the column stats are computed, and
	// all standardized column distances come from the algebraic expansion
	// in matrix.StandardizedColumnDistances — the matrix is never densified.
	st := m.ColumnStats()
	rowDist := matrix.PairwiseDistancesParallel(m, opts.Parallelism)
	rowDend, err := Agglomerate(rowDist, weights, opts.Linkage)
	if err != nil {
		return nil, fmt.Errorf("row clustering: %w", err)
	}
	coph, err := rowDend.CopheneticCorrelation(rowDist)
	if err != nil {
		return nil, fmt.Errorf("cophenetic: %w", err)
	}

	colDend, err := columnDendrogram(m, st, opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("column clustering: %w", err)
	}

	clusters, unclustered := selectRowClusters(rowDend, opts)

	res := &Result{
		RowDendrogram:         rowDend,
		ColDendrogram:         colDend,
		Unclustered:           unclustered,
		CopheneticCorrelation: coph,
	}
	for i, leaves := range clusters {
		b := Bicluster{ID: i + 1, RowLeaves: leaves, SampleWeight: rowDend.WeightOf(leaves)}
		b.ZeroFraction = weightedZeroFraction(m, leaves, rowDend.Weights)
		b.BlackHole = b.ZeroFraction > opts.BlackHoleZeroFrac
		b.Features = discriminatingFeatures(m, leaves, rowDend.Weights, opts.FeatureSupport)
		b.FeatureOrder = orderFeatures(m, st, leaves, b.Features, opts.Parallelism)
		res.Biclusters = append(res.Biclusters, b)
	}
	return res, nil
}

// columnDendrogram clusters the standardized feature columns without
// materializing the standardized matrix.
func columnDendrogram(m matrix.RowMatrix, st matrix.ColStats, workers int) (*Dendrogram, error) {
	if m.Cols() == 1 {
		return &Dendrogram{NLeaves: 1, Weights: []float64{1}}, nil
	}
	d, err := matrix.StandardizedColumnDistancesParallel(m, st, nil, nil, workers)
	if err != nil {
		return nil, err
	}
	return UPGMA(d, nil)
}

// selectRowClusters automates the paper's visual heat-map selection with
// its "rule of 5%": over all prunings of the dendrogram (every antichain of
// subtrees — the formal counterpart of reading contiguous color blocks at
// different depths), pick the one with the most clusters that each cover at
// least MinClusterFrac of the total sample weight, breaking ties toward
// higher covered weight and then toward coarser clusters. Subtrees of
// identical samples (merge height equal to their children's) are never
// split, so duplicated payloads cannot be shattered into artificial
// clusters. Leaves outside every selected cluster are reported as
// unclustered noise, matching the paper's observation that some samples fit
// no bicluster. Clusters come back in heat-map order.
//
// The optimization is an exact O(n) dynamic program on the tree.
func selectRowClusters(d *Dendrogram, opts Options) (clusters [][]int, unclustered []int) {
	total := d.TotalWeight()
	minW := opts.MinClusterFrac * total
	root := d.tree()

	type score struct {
		big   int
		cov   float64
		split bool
	}
	scores := make(map[*node]score, 2*d.NLeaves)
	weightOf := make(map[*node]float64, 2*d.NLeaves)

	var solve func(n *node) score
	solve = func(n *node) score {
		var w float64
		if n.left == nil {
			w = d.Weights[n.id]
		} else {
			solve(n.left)
			solve(n.right)
			w = weightOf[n.left] + weightOf[n.right]
		}
		weightOf[n] = w

		keep := score{}
		if w >= minW {
			keep = score{big: 1, cov: w}
		}
		best := keep
		if n.left != nil && n.height > math.Max(n.left.height, n.right.height)+1e-12 {
			sl, sr := scores[n.left], scores[n.right]
			split := score{big: sl.big + sr.big, cov: sl.cov + sr.cov, split: true}
			if split.big > keep.big || (split.big == keep.big && split.cov > keep.cov+1e-12) {
				best = split
			}
		}
		scores[n] = best
		return best
	}
	solve(root)

	var collect func(n *node)
	collect = func(n *node) {
		s := scores[n]
		if s.split {
			collect(n.left)
			collect(n.right)
			return
		}
		leaves := d.leavesUnder(n)
		if s.big == 1 {
			clusters = append(clusters, leaves)
		} else {
			unclustered = append(unclustered, leaves...)
		}
	}
	collect(root)

	if len(clusters) == 0 {
		return [][]int{allLeaves(d)}, nil
	}
	// Enforce the cluster budget: demote the smallest clusters to noise.
	if len(clusters) > opts.MaxClusters {
		sort.Slice(clusters, func(i, j int) bool {
			return d.WeightOf(clusters[i]) > d.WeightOf(clusters[j])
		})
		for _, c := range clusters[opts.MaxClusters:] {
			unclustered = append(unclustered, c...)
		}
		clusters = clusters[:opts.MaxClusters]
	}
	// Heat-map order.
	pos := make(map[int]int, d.NLeaves)
	for p, leaf := range d.LeafOrder() {
		pos[leaf] = p
	}
	sort.Slice(clusters, func(i, j int) bool { return pos[clusters[i][0]] < pos[clusters[j][0]] })
	return clusters, unclustered
}

func allLeaves(d *Dendrogram) []int {
	out := make([]int, d.NLeaves)
	for i := range out {
		out[i] = i
	}
	return out
}

// weightedZeroFraction is the weighted fraction of zero cells in the rows
// of m given by leaves, over all columns. Only the nonzero count per row
// is needed, so the CSR backing pays O(1) per row.
func weightedZeroFraction(m matrix.RowMatrix, leaves []int, weights []float64) float64 {
	cols := float64(m.Cols())
	var zeros, total float64
	for _, i := range leaves {
		w := weights[i]
		zeros += w * (cols - float64(matrix.RowNNZ(m, i)))
		total += w * cols
	}
	if total == 0 {
		return 0
	}
	return zeros / total
}

// discriminatingFeatures returns the columns whose weighted support (the
// fraction of the cluster's samples in which the feature is nonzero) meets
// minSupport, sorted by column index.
func discriminatingFeatures(m matrix.RowMatrix, leaves []int, weights []float64, minSupport float64) []int {
	var totalW float64
	support := make([]float64, m.Cols())
	for _, i := range leaves {
		w := weights[i]
		totalW += w
		cols, _ := m.RowNonZeros(i)
		for _, j := range cols {
			support[j] += w
		}
	}
	var out []int
	for j, s := range support {
		if totalW > 0 && s/totalW >= minSupport {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// orderFeatures orders the selected features by clustering their
// standardized profiles restricted to the cluster's rows — the
// within-cluster column dendrogram of the biclustering procedure. The
// global column statistics are used, matching a standardize-then-restrict
// pipeline, and nothing is densified.
func orderFeatures(m matrix.RowMatrix, st matrix.ColStats, leaves, features []int, workers int) []int {
	if len(features) <= 2 {
		return append([]int(nil), features...)
	}
	d, err := matrix.StandardizedColumnDistancesParallel(m, st, leaves, features, workers)
	if err != nil {
		return append([]int(nil), features...)
	}
	dend, err := UPGMA(d, nil)
	if err != nil {
		return append([]int(nil), features...)
	}
	order := dend.LeafOrder()
	out := make([]int, len(order))
	for k, idx := range order {
		out[k] = features[idx]
	}
	return out
}
