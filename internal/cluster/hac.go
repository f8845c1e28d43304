// Package cluster implements the clustering substrate of the pSigene
// pipeline: hierarchical agglomerative clustering with the UPGMA
// (Unweighted Pair Group Method with Arithmetic mean) linkage, dendrogram
// manipulation (leaf ordering, cutting), cophenetic correlation, and the
// two-way biclustering procedure the paper applies to the sample×feature
// matrix (rows first, then columns within each row cluster).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"psigene/internal/matrix"
)

// Merge records one agglomeration step, in the style of a linkage matrix:
// clusters A and B (ids < nLeaves are leaves; id nLeaves+k is the cluster
// created by step k) merged at the given Height into a cluster of Size
// weighted leaves.
type Merge struct {
	A, B   int
	Height float64
	Size   float64
}

// Dendrogram is the result of a hierarchical agglomerative clustering run.
type Dendrogram struct {
	// NLeaves is the number of input items.
	NLeaves int
	// Weights holds the weight (multiplicity) of each leaf.
	Weights []float64
	// Merges has exactly NLeaves-1 entries in merge order.
	Merges []Merge
}

// Linkage selects the inter-cluster distance update rule.
type Linkage int

// Linkage rules. The paper uses UPGMA (average); single and complete
// linkage exist for the ablation benchmarks.
const (
	LinkageAverage Linkage = iota + 1
	LinkageSingle
	LinkageComplete
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case LinkageAverage:
		return "average (UPGMA)"
	case LinkageSingle:
		return "single"
	case LinkageComplete:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// UPGMA performs hierarchical agglomerative clustering with average linkage
// over the condensed distance matrix d. weights gives the multiplicity of
// each item (nil means all ones); running weighted UPGMA over deduplicated
// rows is mathematically identical to running plain UPGMA over the expanded
// matrix, which is how the pipeline scales to the paper's 30,000 samples.
//
// The implementation is the classic "generic" algorithm with
// nearest-neighbour candidate arrays: O(n^2) memory and roughly O(n^2)
// time in practice.
func UPGMA(d *matrix.Condensed, weights []float64) (*Dendrogram, error) {
	return Agglomerate(d, weights, LinkageAverage)
}

// Agglomerate is UPGMA generalized over the linkage rule.
func Agglomerate(d *matrix.Condensed, weights []float64, linkage Linkage) (*Dendrogram, error) {
	n := d.N()
	if n == 0 {
		return nil, fmt.Errorf("cluster: no items")
	}
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		return nil, fmt.Errorf("cluster: %d weights for %d items", len(weights), n)
	}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("cluster: weight[%d]=%v must be positive and finite", i, w)
		}
	}
	dend := &Dendrogram{
		NLeaves: n,
		Weights: append([]float64(nil), weights...),
		Merges:  make([]Merge, 0, n-1),
	}
	if n == 1 {
		return dend, nil
	}

	// Working distance matrix, full square for O(1) row scans, backed by a
	// single flat allocation (n slice headers would cost n allocations and
	// scatter the rows across the heap). Slot i holds the current cluster
	// occupying slot i; clusterID maps slot → linkage id. The upper
	// triangle is bulk-copied straight out of the condensed storage — row
	// i's entries are contiguous there — so initialization pays no per-cell
	// index arithmetic or mirrored writes; one transpose pass then fills
	// the lower triangle, which recompute's full-row scans rely on.
	dist := make([]float64, n*n)
	vals := d.Values()
	pos := 0
	for i := 0; i < n; i++ {
		copy(dist[i*n+i+1:(i+1)*n], vals[pos:pos+n-1-i])
		pos += n - 1 - i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist[j*n+i] = dist[i*n+j]
		}
	}
	active := make([]bool, n)
	size := make([]float64, n)
	clusterID := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = weights[i]
		clusterID[i] = i
	}

	// Nearest-neighbour candidates. nni[i] is the best partner found for
	// slot i; nnd[i] the corresponding distance. Entries go stale when their
	// partner is merged away and are recomputed on demand.
	nni := make([]int, n)
	nnd := make([]float64, n)
	recompute := func(i int) {
		best, bestD := -1, math.Inf(1)
		row := dist[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			if k == i || !active[k] {
				continue
			}
			if row[k] < bestD {
				best, bestD = k, row[k]
			}
		}
		nni[i], nnd[i] = best, bestD
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}

	nextID := n
	for step := 0; step < n-1; step++ {
		// Find the globally closest valid candidate pair.
		bi := -1
		bd := math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			if !active[nni[i]] {
				recompute(i)
			}
			if nnd[i] < bd {
				bi, bd = i, nnd[i]
			}
		}
		bj := nni[bi]
		if bi > bj {
			bi, bj = bj, bi
		}

		si, sj := size[bi], size[bj]
		dend.Merges = append(dend.Merges, Merge{
			A: clusterID[bi], B: clusterID[bj], Height: dist[bi*n+bj], Size: si + sj,
		})

		// Merge slot bj into slot bi with the linkage's distance update.
		// The mirrored dist[k][bi] write is load-bearing here — recompute(k)
		// scans row k — so only the initialization above can skip mirrors.
		active[bj] = false
		rowI, rowJ := dist[bi*n:(bi+1)*n], dist[bj*n:(bj+1)*n]
		for k := 0; k < n; k++ {
			if !active[k] || k == bi {
				continue
			}
			var nd float64
			switch linkage {
			case LinkageSingle:
				nd = math.Min(rowI[k], rowJ[k])
			case LinkageComplete:
				nd = math.Max(rowI[k], rowJ[k])
			default:
				nd = (si*rowI[k] + sj*rowJ[k]) / (si + sj)
			}
			rowI[k] = nd
			dist[k*n+bi] = nd
			// The new distance may undercut k's cached candidate.
			if nd < nnd[k] {
				nnd[k], nni[k] = nd, bi
			} else if nni[k] == bi || nni[k] == bj {
				recompute(k)
			}
		}
		size[bi] = si + sj
		clusterID[bi] = nextID
		nextID++
		recompute(bi)
	}
	return dend, nil
}

// UPGMARows is a convenience wrapper: it computes pairwise Euclidean
// distances over the rows of m (dense or CSR) and clusters them. The
// distance fill runs on every core; because the parallel kernel is
// bit-identical to the serial one, so is the dendrogram.
// Test oracle only: TestUPGMARowsParallelParity compares worker counts against it.
func UPGMARows(m matrix.RowMatrix, weights []float64) (*Dendrogram, error) {
	return UPGMARowsParallel(m, weights, 0)
}

// UPGMARowsParallel is UPGMARows with an explicit worker count for the
// pairwise-distance fill (0 = GOMAXPROCS, 1 = serial). The result is
// bit-identical for any worker count; the agglomeration itself is
// inherently sequential and stays serial.
func UPGMARowsParallel(m matrix.RowMatrix, weights []float64, workers int) (*Dendrogram, error) {
	return UPGMA(matrix.PairwiseDistancesParallel(m, workers), weights)
}

// node is the tree view of a dendrogram, built on demand.
type node struct {
	id          int
	left, right *node // nil for leaves
	height      float64
}

// tree reconstructs the binary tree from the linkage records and returns
// the root. Node ids follow linkage convention.
func (d *Dendrogram) tree() *node {
	nodes := make(map[int]*node, 2*d.NLeaves-1)
	for i := 0; i < d.NLeaves; i++ {
		nodes[i] = &node{id: i}
	}
	var root *node
	for k, m := range d.Merges {
		nd := &node{id: d.NLeaves + k, left: nodes[m.A], right: nodes[m.B], height: m.Height}
		nodes[nd.id] = nd
		root = nd
	}
	if root == nil {
		root = nodes[0]
	}
	return root
}

// LeafOrder returns the leaves in dendrogram (left-to-right) order — the
// order in which rows or columns are drawn in the Figure 2 heat map.
func (d *Dendrogram) LeafOrder() []int {
	order := make([]int, 0, d.NLeaves)
	var walk func(n *node)
	walk = func(n *node) {
		if n.left == nil {
			order = append(order, n.id)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(d.tree())
	return order
}

// leavesUnder collects the leaf ids under id.
func (d *Dendrogram) leavesUnder(root *node) []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		if n.left == nil {
			out = append(out, n.id)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(root)
	return out
}

// CutK cuts the dendrogram into exactly k clusters (1 <= k <= NLeaves) by
// undoing the last k-1 merges.
func (d *Dendrogram) CutK(k int) ([][]int, error) {
	if k < 1 || k > d.NLeaves {
		return nil, fmt.Errorf("cluster: cannot cut %d leaves into %d clusters", d.NLeaves, k)
	}
	keep := len(d.Merges) - (k - 1)
	parentOf := make(map[int]int, 2*keep)
	for i := 0; i < keep; i++ {
		m := d.Merges[i]
		id := d.NLeaves + i
		parentOf[m.A] = id
		parentOf[m.B] = id
	}
	find := func(x int) int {
		for {
			p, ok := parentOf[x]
			if !ok {
				return x
			}
			x = p
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < d.NLeaves; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out, nil
}

// WeightOf sums the leaf weights of the given leaf indices.
func (d *Dendrogram) WeightOf(leaves []int) float64 {
	var s float64
	for _, l := range leaves {
		s += d.Weights[l]
	}
	return s
}

// TotalWeight is the sum of all leaf weights (the expanded sample count).
func (d *Dendrogram) TotalWeight() float64 {
	var s float64
	for _, w := range d.Weights {
		s += w
	}
	return s
}

// CopheneticDistances returns the condensed cophenetic distance matrix: the
// cophenetic distance between two leaves is the height at which they are
// first joined in the tree.
func (d *Dendrogram) CopheneticDistances() *matrix.Condensed {
	c := matrix.NewCondensed(d.NLeaves)
	// Union-style accumulation: process merges in order, tracking the leaf
	// set of every cluster id; pairs across the two sides get the merge
	// height, which is their lowest common ancestor by construction.
	leaves := make(map[int][]int, 2*d.NLeaves)
	for i := 0; i < d.NLeaves; i++ {
		leaves[i] = []int{i}
	}
	for k, m := range d.Merges {
		la, lb := leaves[m.A], leaves[m.B]
		for _, a := range la {
			for _, b := range lb {
				c.Set(a, b, m.Height)
			}
		}
		merged := make([]int, 0, len(la)+len(lb))
		merged = append(merged, la...)
		merged = append(merged, lb...)
		leaves[d.NLeaves+k] = merged
		delete(leaves, m.A)
		delete(leaves, m.B)
	}
	return c
}

// CopheneticCorrelation returns the Pearson correlation between the
// dendrogram's cophenetic distances and the original distances — the
// validation statistic the paper reports as 0.92. It is weighted by the
// product of leaf weights so deduplicated inputs score identically to the
// expanded matrix.
func (d *Dendrogram) CopheneticCorrelation(orig *matrix.Condensed) (float64, error) {
	if orig.N() != d.NLeaves {
		return 0, fmt.Errorf("cluster: distance matrix over %d items, dendrogram over %d", orig.N(), d.NLeaves)
	}
	if d.NLeaves < 3 {
		return 0, fmt.Errorf("cluster: cophenetic correlation needs >= 3 items")
	}
	coph := d.CopheneticDistances()
	var sw, sx, sy float64
	for i := 0; i < d.NLeaves; i++ {
		for j := i + 1; j < d.NLeaves; j++ {
			w := d.Weights[i] * d.Weights[j]
			sw += w
			sx += w * orig.At(i, j)
			sy += w * coph.At(i, j)
		}
	}
	mx, my := sx/sw, sy/sw
	var sxy, sxx, syy float64
	for i := 0; i < d.NLeaves; i++ {
		for j := i + 1; j < d.NLeaves; j++ {
			w := d.Weights[i] * d.Weights[j]
			dx := orig.At(i, j) - mx
			dy := coph.At(i, j) - my
			sxy += w * dx * dy
			sxx += w * dx * dx
			syy += w * dy * dy
		}
	}
	// Degenerate inputs: if both distance sets are constant the tree
	// represents them perfectly; if only one is constant there is no linear
	// relationship to measure.
	const eps = 1e-18
	if sxx <= eps && syy <= eps {
		return 1, nil
	}
	if sxx <= eps || syy <= eps {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
