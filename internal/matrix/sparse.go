package matrix

import (
	"fmt"
	"sort"
)

// Sparse is a compressed-sparse-row (CSR) matrix of float64 values: row
// pointers, ascending column indices per row, and the matching nonzero
// values. It never stores explicit zeros, so per-row work in every
// consumer is O(nnz) instead of O(cols) — the representation the pipeline
// uses for the paper's ~85%-zero sample×feature matrices and for the
// (sparsest of all) benign serving traffic.
//
// Sparse is the only backing the training pipeline builds; Dense is the
// reference implementation the parity tests compare it against.
type Sparse struct {
	rows, cols int
	rowPtr     []int     // len rows+1; row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx     []int     // len nnz, ascending within each row
	vals       []float64 // len nnz, all nonzero
}

var _ RowMatrix = (*Sparse)(nil)

// NewSparseFromDense compresses a Dense matrix into CSR form.
// Test oracle only: TestParityRowNonZeros compares the two backings through it.
func NewSparseFromDense(d *Dense) *Sparse {
	b := NewSparseBuilder(d.Cols())
	for i := 0; i < d.Rows(); i++ {
		b.AppendDense(d.Row(i))
	}
	return b.Build()
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored (nonzero) cells.
func (s *Sparse) NNZ() int { return len(s.vals) }

// At returns the element at (i, j), binary-searching row i's columns.
func (s *Sparse) At(i, j int) float64 {
	if i < 0 || i >= s.rows || j < 0 || j >= s.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, s.rows, s.cols))
	}
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	k := lo + sort.SearchInts(s.colIdx[lo:hi], j)
	if k < hi && s.colIdx[k] == j {
		return s.vals[k]
	}
	return 0
}

// RowNonZeros implements RowMatrix; the returned slices alias the CSR
// storage.
func (s *Sparse) RowNonZeros(i int) (cols []int, vals []float64) {
	if i < 0 || i >= s.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, s.rows))
	}
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	return s.colIdx[lo:hi], s.vals[lo:hi]
}

// RowDot returns row i · v in O(nnz) time.
func (s *Sparse) RowDot(i int, v []float64) float64 {
	if len(v) != s.cols {
		panic("matrix: dimension mismatch")
	}
	cols, vals := s.RowNonZeros(i)
	var sum float64
	for k, j := range cols {
		sum += vals[k] * v[j]
	}
	return sum
}

// RowSquaredEuclidean merges the two rows' nonzeros in ascending column
// order, so the accumulation visits the same nonzero terms in the same
// order as the dense reference (whose zero-cell terms are exact no-ops).
func (s *Sparse) RowSquaredEuclidean(i, j int) float64 {
	ci, vi := s.RowNonZeros(i)
	cj, vj := s.RowNonZeros(j)
	var sum float64
	a, b := 0, 0
	for a < len(ci) && b < len(cj) {
		switch {
		case ci[a] == cj[b]:
			d := vi[a] - vj[b]
			sum += d * d
			a++
			b++
		case ci[a] < cj[b]:
			sum += vi[a] * vi[a]
			a++
		default:
			sum += vj[b] * vj[b]
			b++
		}
	}
	for ; a < len(ci); a++ {
		sum += vi[a] * vi[a]
	}
	for ; b < len(cj); b++ {
		sum += vj[b] * vj[b]
	}
	return sum
}

// ColumnStats implements RowMatrix via the shared accumulation.
func (s *Sparse) ColumnStats() ColStats { return columnStats(s) }

// SelectRows returns a new Sparse containing the given rows, in order.
func (s *Sparse) SelectRows(idx []int) (RowMatrix, error) {
	nnz := 0
	for _, i := range idx {
		if i < 0 || i >= s.rows {
			return nil, fmt.Errorf("matrix: select row %d out of range %d", i, s.rows)
		}
		nnz += s.rowPtr[i+1] - s.rowPtr[i]
	}
	out := &Sparse{
		rows:   len(idx),
		cols:   s.cols,
		rowPtr: make([]int, 1, len(idx)+1),
		colIdx: make([]int, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	for _, i := range idx {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		out.colIdx = append(out.colIdx, s.colIdx[lo:hi]...)
		out.vals = append(out.vals, s.vals[lo:hi]...)
		out.rowPtr = append(out.rowPtr, len(out.colIdx))
	}
	return out, nil
}

// SelectCols returns a new Sparse containing the given columns, in order.
// Columns may be duplicated or reordered; each row's entries are re-sorted
// into the new column space.
func (s *Sparse) SelectCols(idx []int) (RowMatrix, error) {
	// newPos[j] lists the output positions fed by input column j.
	newPos := make([][]int, s.cols)
	for k, j := range idx {
		if j < 0 || j >= s.cols {
			return nil, fmt.Errorf("matrix: select column %d out of range %d", j, s.cols)
		}
		newPos[j] = append(newPos[j], k)
	}
	out := &Sparse{rows: s.rows, cols: len(idx), rowPtr: make([]int, 1, s.rows+1)}
	type entry struct {
		col int
		val float64
	}
	var scratch []entry
	for i := 0; i < s.rows; i++ {
		scratch = scratch[:0]
		cols, vals := s.RowNonZeros(i)
		for k, j := range cols {
			for _, p := range newPos[j] {
				scratch = append(scratch, entry{col: p, val: vals[k]})
			}
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].col < scratch[b].col })
		for _, e := range scratch {
			out.colIdx = append(out.colIdx, e.col)
			out.vals = append(out.vals, e.val)
		}
		out.rowPtr = append(out.rowPtr, len(out.colIdx))
	}
	return out, nil
}

// Binaryize clamps every stored value to 1 in place. Zero cells are not
// stored, so this matches the dense semantics exactly.
func (s *Sparse) Binaryize() {
	for k := range s.vals {
		s.vals[k] = 1
	}
}

// Sparsity returns the fraction of cells equal to zero and equal to one.
func (s *Sparse) Sparsity() (zeros, ones float64) {
	total := s.rows * s.cols
	if total == 0 {
		return 0, 0
	}
	o := 0
	for _, v := range s.vals {
		if v == 1 {
			o++
		}
	}
	n := float64(total)
	return float64(total-len(s.vals)) / n, float64(o) / n
}

// SparseBuilder assembles a Sparse matrix row by row.
type SparseBuilder struct {
	cols   int
	rowPtr []int
	colIdx []int
	vals   []float64
}

// NewSparseBuilder returns a builder for matrices with the given width.
func NewSparseBuilder(cols int) *SparseBuilder {
	if cols < 0 {
		panic(fmt.Sprintf("matrix: negative column count %d", cols))
	}
	return &SparseBuilder{cols: cols, rowPtr: []int{0}}
}

// AppendDense appends a row given as a full-width slice, skipping zeros.
func (b *SparseBuilder) AppendDense(row []float64) {
	if len(row) != b.cols {
		panic(fmt.Sprintf("matrix: append row of %d values to %d-column builder", len(row), b.cols))
	}
	for j, v := range row {
		if v != 0 {
			b.colIdx = append(b.colIdx, j)
			b.vals = append(b.vals, v)
		}
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// AppendSparse appends a row from ascending column indices and their
// nonzero values (copied).
func (b *SparseBuilder) AppendSparse(cols []int, vals []float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("matrix: %d columns with %d values", len(cols), len(vals))
	}
	prev := -1
	for k, j := range cols {
		if j <= prev || j >= b.cols {
			return fmt.Errorf("matrix: sparse row column %d out of order or range %d", j, b.cols)
		}
		if vals[k] == 0 {
			return fmt.Errorf("matrix: sparse row stores explicit zero at column %d", j)
		}
		prev = j
	}
	b.appendSorted(cols, vals)
	return nil
}

// AppendRowOf appends row i of m. RowNonZeros already yields ascending,
// in-range, nonzero columns, so unlike AppendSparse the row is copied
// without revalidation — this is how per-signature training matrices are
// stitched together from attack and benign blocks.
func (b *SparseBuilder) AppendRowOf(m RowMatrix, i int) {
	if m.Cols() != b.cols {
		panic(fmt.Sprintf("matrix: append row of a %d-column matrix to %d-column builder", m.Cols(), b.cols))
	}
	cols, vals := m.RowNonZeros(i)
	b.appendSorted(cols, vals)
}

// appendSorted appends pre-validated ascending (cols, vals) pairs.
func (b *SparseBuilder) appendSorted(cols []int, vals []float64) {
	b.colIdx = append(b.colIdx, cols...)
	b.vals = append(b.vals, vals...)
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// Rows returns the number of rows appended so far.
func (b *SparseBuilder) Rows() int { return len(b.rowPtr) - 1 }

// Build returns the assembled matrix. The builder must not be reused.
func (b *SparseBuilder) Build() *Sparse {
	return &Sparse{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		rowPtr: b.rowPtr,
		colIdx: b.colIdx,
		vals:   b.vals,
	}
}
