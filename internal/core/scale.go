package core

import (
	"psigene/internal/cluster"
	"psigene/internal/matrix"
)

// remapBiclusters rewrites bicluster row leaves (and the unclustered list)
// from subsample-local indices to indices into the full observed matrix.
func remapBiclusters(bic *cluster.Result, clusterIdx []int) {
	for i := range bic.Biclusters {
		b := &bic.Biclusters[i]
		mapped := make([]int, len(b.RowLeaves))
		for k, l := range b.RowLeaves {
			mapped[k] = clusterIdx[l]
		}
		b.RowLeaves = mapped
	}
	mapped := make([]int, len(bic.Unclustered))
	for k, l := range bic.Unclustered {
		mapped[k] = clusterIdx[l]
	}
	bic.Unclustered = mapped
}

// assignLeftovers assigns every observed row not used in clustering to the
// bicluster with the nearest centroid (in raw count space), growing that
// bicluster's sample set so the leftover samples still train signatures.
// Rows closer to no centroid than the farthest intra-cluster spread would
// be equally fine as noise; keeping the rule simple (always assign to the
// nearest) matches LR's tolerance for label noise.
func assignLeftovers(bic *cluster.Result, observed matrix.RowMatrix, weights []float64, clusterIdx []int) {
	used := make(map[int]bool, len(clusterIdx))
	for _, i := range clusterIdx {
		used[i] = true
	}

	// Centroids over the clustered members (weighted means), accumulated
	// from each row's nonzeros.
	cols := observed.Cols()
	centroids := make([][]float64, len(bic.Biclusters))
	for bi := range bic.Biclusters {
		c := make([]float64, cols)
		var wsum float64
		for _, l := range bic.Biclusters[bi].RowLeaves {
			w := weights[l]
			wsum += w
			rc, rv := observed.RowNonZeros(l)
			for k, j := range rc {
				c[j] += w * rv[k]
			}
		}
		if wsum > 0 {
			for j := range c {
				c[j] /= wsum
			}
		}
		centroids[bi] = c
	}
	if len(centroids) == 0 {
		return
	}

	for i := 0; i < observed.Rows(); i++ {
		if used[i] {
			continue
		}
		best, bestD := 0, rowSquaredDistToVec(observed, i, centroids[0])
		for bi := 1; bi < len(centroids); bi++ {
			if d := rowSquaredDistToVec(observed, i, centroids[bi]); d < bestD {
				best, bestD = bi, d
			}
		}
		b := &bic.Biclusters[best]
		b.RowLeaves = append(b.RowLeaves, i)
		b.SampleWeight += weights[i]
	}
}

// rowSquaredDistToVec is ‖m[i] − c‖². It walks every column in ascending
// order with a cursor into the row's nonzeros, accumulating the terms in
// column order (centroids are dense, so the distance is inherently
// O(cols)).
func rowSquaredDistToVec(m matrix.RowMatrix, i int, c []float64) float64 {
	cols, vals := m.RowNonZeros(i)
	var d float64
	k := 0
	for j := range c {
		var v float64
		if k < len(cols) && cols[k] == j {
			v = vals[k]
			k++
		}
		diff := v - c[j]
		d += diff * diff
	}
	return d
}
