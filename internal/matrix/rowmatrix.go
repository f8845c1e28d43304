package matrix

import (
	"fmt"
	"math"
)

// RowMatrix is the read-mostly row-major matrix abstraction every pipeline
// stage (feature extraction, biclustering, logistic regression, the runtime
// engine) programs against. The pipeline's only backing is the CSR Sparse,
// which carries the ~85%-zero sample×feature matrix end to end; Dense
// implements the same interface as the kernel-level reference the parity
// tests compare against.
type RowMatrix interface {
	// Rows and Cols return the matrix dimensions.
	Rows() int
	Cols() int
	// At returns the element at (i, j). It panics out of range.
	At(i, j int) float64
	// RowNonZeros returns row i's nonzero cells: ascending column indices
	// in cols with the matching values in vals (both empty for an all-zero
	// row). The returned slices may alias internal storage and must not be
	// mutated or retained across matrix mutations.
	RowNonZeros(i int) (cols []int, vals []float64)
	// RowDot returns the dot product of row i with the dense vector v
	// (len(v) == Cols()).
	RowDot(i int, v []float64) float64
	// RowSquaredEuclidean returns the squared Euclidean distance between
	// rows i and j of the same matrix.
	RowSquaredEuclidean(i, j int) float64
	// ColumnStats computes per-column mean and population std deviation.
	ColumnStats() ColStats
	// SelectRows returns a new matrix (same backing) with the given rows.
	SelectRows(idx []int) (RowMatrix, error)
	// SelectCols returns a new matrix (same backing) with the given columns.
	SelectCols(idx []int) (RowMatrix, error)
	// Binaryize clamps every nonzero cell to 1 in place.
	Binaryize()
	// Sparsity returns the fraction of cells equal to zero and to one.
	Sparsity() (zeros, ones float64)
}

// columnStats is the shared ColumnStats implementation. Both types use
// it so that the accumulation order — row-major over the nonzero cells,
// with the zero cells' (0-μ)² variance contribution folded in once per
// column at the end — is bit-for-bit identical between Dense and Sparse.
// That exactness is what lets the consumer parity tests (cluster.Run,
// ml.TrainLogistic) compare their results with ==.
func columnStats(m RowMatrix) ColStats {
	rows, cols := m.Rows(), m.Cols()
	mean := make([]float64, cols)
	std := make([]float64, cols)
	if rows == 0 || cols == 0 {
		return ColStats{Mean: mean, Std: std}
	}
	nnz := make([]int, cols)
	forEachNonZero(m, func(_, j int, v float64) {
		mean[j] += v
		nnz[j]++
	})
	n := float64(rows)
	for j := range mean {
		mean[j] /= n
	}
	forEachNonZero(m, func(_, j int, v float64) {
		d := v - mean[j]
		std[j] += d * d
	})
	for j := range std {
		std[j] += float64(rows-nnz[j]) * mean[j] * mean[j]
		std[j] = math.Sqrt(std[j] / n)
	}
	return ColStats{Mean: mean, Std: std}
}

// forEachNonZero calls fn(i, j, v) for every nonzero cell, row-major with
// ascending columns inside each row.
func forEachNonZero(m RowMatrix, fn func(i, j int, v float64)) {
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.RowNonZeros(i)
		for k, j := range cols {
			fn(i, j, vals[k])
		}
	}
}

// RowNNZ returns the number of nonzero cells in row i.
func RowNNZ(m RowMatrix, i int) int {
	cols, _ := m.RowNonZeros(i)
	return len(cols)
}

// StandardizedColumnDistances returns the condensed Euclidean distance
// matrix between the z-score standardized columns of m, restricted to the
// given rows and columns (nil means all, in order). Standardization uses
// the supplied global column statistics st (so a row-restricted call still
// standardizes with corpus-wide μ/σ, matching a Standardize-then-SelectRows
// pipeline), and is *virtual*: the standardized matrix is never
// materialized. Writing ã_i = (a_i-μ_A)/σ_A, the pairwise distance
//
//	‖ã-b̃‖² = Σã² + Σb̃² - 2Σãb̃
//
// needs only per-column sums, sums of squares, and the column-pair Gram
// products over the selected rows — all accumulated from the nonzero cells
// in one row-major pass, O(Σ_rows nnz²) time and O(d²) memory for d
// selected columns. Columns with σ = 0 standardize to all zeros, matching
// Dense.Standardize.
func StandardizedColumnDistances(m RowMatrix, st ColStats, rowIdx, colIdx []int) (*Condensed, error) {
	if len(st.Mean) != m.Cols() || len(st.Std) != m.Cols() {
		return nil, fmt.Errorf("matrix: column stats over %d columns, matrix has %d", len(st.Mean), m.Cols())
	}
	if colIdx == nil {
		colIdx = make([]int, m.Cols())
		for j := range colIdx {
			colIdx[j] = j
		}
	}
	d := len(colIdx)
	// local[j] maps a global column to its selected position, or -1.
	local := make([]int, m.Cols())
	for j := range local {
		local[j] = -1
	}
	for k, j := range colIdx {
		if j < 0 || j >= m.Cols() {
			return nil, fmt.Errorf("matrix: select column %d out of range %d", j, m.Cols())
		}
		local[j] = k
	}
	nRows := m.Rows()
	if rowIdx != nil {
		nRows = len(rowIdx)
	}

	sum := make([]float64, d)
	sumsq := make([]float64, d)
	gram := make([]float64, d*d) // upper triangle used
	selCols := make([]int, 0, d)
	selVals := make([]float64, 0, d)

	accumulate := func(i int) error {
		if i < 0 || i >= m.Rows() {
			return fmt.Errorf("matrix: select row %d out of range %d", i, m.Rows())
		}
		selCols, selVals = selCols[:0], selVals[:0]
		cols, vals := m.RowNonZeros(i)
		for k, j := range cols {
			if local[j] >= 0 {
				selCols = append(selCols, local[j])
				selVals = append(selVals, vals[k])
			}
		}
		for k, lj := range selCols {
			v := selVals[k]
			sum[lj] += v
			sumsq[lj] += v * v
			for k2 := k + 1; k2 < len(selCols); k2++ {
				a, b := lj, selCols[k2]
				if a > b {
					a, b = b, a
				}
				gram[a*d+b] += v * selVals[k2]
			}
		}
		return nil
	}
	if rowIdx != nil {
		for _, i := range rowIdx {
			if err := accumulate(i); err != nil {
				return nil, err
			}
		}
	} else {
		for i := 0; i < m.Rows(); i++ {
			if err := accumulate(i); err != nil {
				return nil, err
			}
		}
	}

	n := float64(nRows)
	// selfSq[k] = Σ_i ã_i² over the selected rows for selected column k.
	selfSq := make([]float64, d)
	for k, j := range colIdx {
		if st.Std[j] == 0 {
			continue
		}
		mu, sd := st.Mean[j], st.Std[j]
		selfSq[k] = (sumsq[k] - 2*mu*sum[k] + n*mu*mu) / (sd * sd)
	}
	out := NewCondensed(d)
	pos := 0
	for a := 0; a < d; a++ {
		ja := colIdx[a]
		for b := a + 1; b < d; b++ {
			jb := colIdx[b]
			var cross float64
			if st.Std[ja] != 0 && st.Std[jb] != 0 {
				muA, muB := st.Mean[ja], st.Mean[jb]
				cross = (gram[a*d+b] - muA*sum[b] - muB*sum[a] + n*muA*muB) / (st.Std[ja] * st.Std[jb])
			}
			d2 := selfSq[a] + selfSq[b] - 2*cross
			if d2 < 0 { // floating-point cancellation
				d2 = 0
			}
			out.data[pos] = math.Sqrt(d2)
			pos++
		}
	}
	return out, nil
}

// ToDense materializes any RowMatrix as a Dense copy. Intended for display
// and reference paths, never for the serving pipeline.
func ToDense(m RowMatrix) *Dense {
	out := MustNew(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.RowNonZeros(i)
		row := out.Row(i)
		for k, j := range cols {
			row[j] = vals[k]
		}
	}
	return out
}
