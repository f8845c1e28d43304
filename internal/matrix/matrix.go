// Package matrix provides the linear-algebra substrate used by the pSigene
// pipeline: row-major matrices with the column statistics, standardization,
// and pairwise-distance operations that the biclustering and
// logistic-regression stages are built on.
//
// The matrices handled here are sample×feature matrices: rows are attack (or
// benign) samples and columns are feature counts. The paper's corpus is
// ~85% zeros, so the compressed sparse row Sparse type is the pipeline's
// only training backing. Dense implements the same RowMatrix interface as
// the kernel-level reference: the parity tests compare every Sparse kernel
// against it, and display paths (the Figure 2 heat map) densify into it.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty matrix. Use New or NewFromRows to build one.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

var _ RowMatrix = (*Dense)(nil)

// New returns a rows×cols matrix of zeros.
func New(rows, cols int) (*Dense, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: invalid dimensions %dx%d", rows, cols)
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// MustNew is New for dimensions known to be valid; it panics on error and is
// intended for tests and literals.
func MustNew(rows, cols int) *Dense {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// NewFromRows builds a matrix from a slice of equal-length rows. The data is
// copied, so the caller keeps ownership of rows.
// Test fixture only: TestNewFromRows and the matrix, ml and cluster tests build inputs with it.
func NewFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return &Dense{}, nil
	}
	cols := len(rows[0])
	m := &Dense{rows: len(rows), cols: cols, data: make([]float64, 0, len(rows)*cols)}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(r), cols)
		}
		m.data = append(m.data, r...)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view of row i. The returned slice aliases the matrix
// storage; mutating it mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowNonZeros implements RowMatrix by copying out row i's nonzero cells in
// ascending column order.
func (m *Dense) RowNonZeros(i int) (cols []int, vals []float64) {
	for j, v := range m.Row(i) {
		if v != 0 {
			cols = append(cols, j)
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// RowDot returns row i · v.
func (m *Dense) RowDot(i int, v []float64) float64 {
	return Dot(m.Row(i), v)
}

// RowSquaredEuclidean returns the squared Euclidean distance between rows
// i and j.
func (m *Dense) RowSquaredEuclidean(i, j int) float64 {
	return SquaredEuclidean(m.Row(i), m.Row(j))
}

// Binaryize clamps every nonzero cell to 1 in place.
func (m *Dense) Binaryize() {
	for k, v := range m.data {
		if v != 0 {
			m.data[k] = 1
		}
	}
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: column %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := &Dense{rows: m.rows, cols: m.cols, data: make([]float64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// SelectRows returns a new matrix containing the given rows, in order.
func (m *Dense) SelectRows(idx []int) (RowMatrix, error) {
	out := &Dense{rows: len(idx), cols: m.cols, data: make([]float64, 0, len(idx)*m.cols)}
	for _, i := range idx {
		if i < 0 || i >= m.rows {
			return nil, fmt.Errorf("matrix: select row %d out of range %d", i, m.rows)
		}
		out.data = append(out.data, m.Row(i)...)
	}
	return out, nil
}

// SelectCols returns a new matrix containing the given columns, in order.
func (m *Dense) SelectCols(idx []int) (RowMatrix, error) {
	for _, j := range idx {
		if j < 0 || j >= m.cols {
			return nil, fmt.Errorf("matrix: select column %d out of range %d", j, m.cols)
		}
	}
	out := &Dense{rows: m.rows, cols: len(idx), data: make([]float64, m.rows*len(idx))}
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := out.data[i*len(idx) : (i+1)*len(idx)]
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out, nil
}

// Sparsity returns the fraction of cells equal to zero and the fraction
// equal to one. The paper reports ~85% zeros and ~6% ones for the 30,000×159
// training matrix; these are the numbers this method reproduces.
func (m *Dense) Sparsity() (zeros, ones float64) {
	if len(m.data) == 0 {
		return 0, 0
	}
	var z, o int
	for _, v := range m.data {
		switch v {
		case 0:
			z++
		case 1:
			o++
		}
	}
	n := float64(len(m.data))
	return float64(z) / n, float64(o) / n
}

// ColStats holds per-column mean and (population) standard deviation.
type ColStats struct {
	Mean, Std []float64
}

// ColumnStats computes the mean and population standard deviation of every
// column. Dense and Sparse share one accumulation (over nonzero cells, the
// zero cells' variance contribution folded in per column) so the two agree
// bit for bit.
func (m *Dense) ColumnStats() ColStats { return columnStats(m) }

// Standardize returns a new matrix with every column z-score standardized:
// the column mean subtracted and the result divided by the column standard
// deviation. Columns with zero standard deviation become all zeros. This is
// the transformation used for the Figure 2 heat map.
func (m *Dense) Standardize() (*Dense, ColStats) {
	st := m.ColumnStats()
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		r := out.Row(i)
		for j := range r {
			if st.Std[j] == 0 {
				r[j] = 0
				continue
			}
			r[j] = (r[j] - st.Mean[j]) / st.Std[j]
		}
	}
	return out, st
}

// ErrDimensionMismatch is returned when two vectors of different lengths are
// combined.
var ErrDimensionMismatch = errors.New("matrix: dimension mismatch")

// Euclidean returns the Euclidean (L2) distance between two equal-length
// vectors.
// Test oracle only: TestEuclideanMetricProperties checks the kernels against it.
func Euclidean(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrDimensionMismatch
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// SquaredEuclidean returns the squared Euclidean distance between two
// equal-length vectors. It panics if the lengths differ; it is the hot-path
// variant used inside clustering loops where lengths are already validated.
func SquaredEuclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: dimension mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: dimension mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the L2 norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("matrix: dimension mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// PairwiseDistances returns the condensed upper-triangular Euclidean
// distance matrix over the rows of m: the returned Condensed holds
// d(i,j) for all i<j. The condensed layout is written sequentially in one
// pass (row i's entries are contiguous), so no per-cell index arithmetic
// or bounds checks are paid. For the Sparse backing each pair costs
// O(nnz_i + nnz_j) instead of O(cols).
func PairwiseDistances(m RowMatrix) *Condensed {
	n := m.Rows()
	c := NewCondensed(n)
	pos := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.data[pos] = math.Sqrt(m.RowSquaredEuclidean(i, j))
			pos++
		}
	}
	return c
}

// Condensed is a condensed (upper-triangular, no diagonal) symmetric
// distance matrix over n items, stored in n*(n-1)/2 float64s.
type Condensed struct {
	n    int
	data []float64
}

// NewCondensed returns a zeroed condensed distance matrix over n items,
// pre-sized to exactly n*(n-1)/2 entries. n = 0 and n = 1 are valid edge
// cases (a dendrogram over one leaf has no pairs) and yield an empty
// matrix on which At and Set always panic; negative n panics immediately
// with a clear message.
func NewCondensed(n int) *Condensed {
	if n < 0 {
		panic(fmt.Sprintf("matrix: condensed distance matrix size %d is negative", n))
	}
	return &Condensed{n: n, data: make([]float64, n*(n-1)/2)}
}

// N returns the number of items.
func (c *Condensed) N() int { return c.n }

func (c *Condensed) index(i, j int) int {
	if c.n < 2 {
		panic(fmt.Sprintf("matrix: condensed matrix over %d item(s) has no pairs", c.n))
	}
	if i == j || i < 0 || j < 0 || i >= c.n || j >= c.n {
		panic(fmt.Sprintf("matrix: condensed index (%d,%d) invalid for n=%d", i, j, c.n))
	}
	if i > j {
		i, j = j, i
	}
	// Row i starts at offset i*n - i*(i+1)/2 - i - ... Standard condensed layout:
	// index(i,j) = i*(2n-i-1)/2 + (j-i-1) for i<j.
	return i*(2*c.n-i-1)/2 + (j - i - 1)
}

// At returns d(i, j). At(i, i) is not representable and panics.
func (c *Condensed) At(i, j int) float64 { return c.data[c.index(i, j)] }

// Set assigns d(i, j) = d(j, i) = v.
func (c *Condensed) Set(i, j int, v float64) { c.data[c.index(i, j)] = v }

// Values returns the underlying condensed storage in row-major (i<j) order.
// The slice aliases internal storage.
func (c *Condensed) Values() []float64 { return c.data }
