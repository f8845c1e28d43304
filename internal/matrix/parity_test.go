package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// parityCase is a randomly generated dense/CSR pair over the same values,
// produced by Generate so testing/quick can drive the parity properties.
type parityCase struct {
	dense  *Dense
	sparse *Sparse
	rng    *rand.Rand
}

// Generate implements quick.Generator: a small random count matrix with
// paper-like sparsity (~85% zeros), plus a seeded RNG for derived choices
// (vectors, index subsets) so each property stays deterministic per case.
func (parityCase) Generate(r *rand.Rand, size int) reflect.Value {
	rows := 1 + r.Intn(12)
	cols := 1 + r.Intn(15)
	d := MustNew(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < 0.2 {
				d.Set(i, j, float64(1+r.Intn(9)))
			}
		}
	}
	c := parityCase{dense: d, sparse: NewSparseFromDense(d), rng: rand.New(rand.NewSource(r.Int63()))}
	return reflect.ValueOf(c)
}

func (c parityCase) randVec() []float64 {
	v := make([]float64, c.dense.Cols())
	for j := range v {
		v[j] = c.rng.NormFloat64()
	}
	return v
}

func (c parityCase) randIdx(n int) []int {
	k := 1 + c.rng.Intn(n)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = c.rng.Intn(n) // duplicates and any order allowed
	}
	return idx
}

func quickCheck(t *testing.T, f interface{}) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParityRowDot(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		v := c.randVec()
		for i := 0; i < c.dense.Rows(); i++ {
			if c.dense.RowDot(i, v) != c.sparse.RowDot(i, v) {
				return false
			}
		}
		return true
	})
}

func TestParityRowSquaredEuclidean(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		for i := 0; i < c.dense.Rows(); i++ {
			for j := 0; j < c.dense.Rows(); j++ {
				if c.dense.RowSquaredEuclidean(i, j) != c.sparse.RowSquaredEuclidean(i, j) {
					return false
				}
			}
		}
		return true
	})
}

func TestParityColumnStats(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		ds, ss := c.dense.ColumnStats(), c.sparse.ColumnStats()
		for j := range ds.Mean {
			if ds.Mean[j] != ss.Mean[j] || ds.Std[j] != ss.Std[j] {
				return false
			}
		}
		return true
	})
}

func TestParitySelectRows(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		idx := c.randIdx(c.dense.Rows())
		dm, derr := c.dense.SelectRows(idx)
		sm, serr := c.sparse.SelectRows(idx)
		if (derr == nil) != (serr == nil) {
			return false
		}
		if derr != nil {
			return true
		}
		return matricesEqual(dm, sm)
	})
}

func TestParitySelectCols(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		idx := c.randIdx(c.dense.Cols())
		dm, derr := c.dense.SelectCols(idx)
		sm, serr := c.sparse.SelectCols(idx)
		if (derr == nil) != (serr == nil) {
			return false
		}
		if derr != nil {
			return true
		}
		return matricesEqual(dm, sm)
	})
}

func TestParitySelectErrors(t *testing.T) {
	d := MustNew(3, 4)
	s := NewSparseFromDense(d)
	for _, idx := range [][]int{{-1}, {3}, {0, 1, 5}} {
		if _, err := s.SelectRows(idx); err == nil {
			t.Errorf("sparse SelectRows(%v): want error", idx)
		}
	}
	for _, idx := range [][]int{{-1}, {4}} {
		if _, err := s.SelectCols(idx); err == nil {
			t.Errorf("sparse SelectCols(%v): want error", idx)
		}
	}
}

func TestParityPairwiseDistances(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		if c.dense.Rows() < 2 {
			return true
		}
		dd := PairwiseDistances(c.dense)
		sd := PairwiseDistances(c.sparse)
		for i := 0; i < c.dense.Rows(); i++ {
			for j := i + 1; j < c.dense.Rows(); j++ {
				a := dd.At(i, j)
				b := sd.At(i, j)
				// Distances route through the same RowSquaredEuclidean
				// merge order, so even the sqrt inputs are identical.
				if a != b {
					return false
				}
			}
		}
		return true
	})
}

func TestParityStandardizedColumnDistances(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		if c.dense.Cols() < 2 {
			return true
		}
		st := c.dense.ColumnStats()
		virt, err := StandardizedColumnDistances(c.sparse, st, nil, nil)
		if err != nil {
			return false
		}
		// Reference: materialize the standardized matrix and measure the
		// column distances directly.
		std, _ := c.dense.Standardize()
		cols := std.Cols()
		for a := 0; a < cols; a++ {
			for b := a + 1; b < cols; b++ {
				var d2 float64
				for i := 0; i < std.Rows(); i++ {
					diff := std.At(i, a) - std.At(i, b)
					d2 += diff * diff
				}
				want := math.Sqrt(d2)
				got := virt.At(a, b)
				// sqrt turns the expansion's ~1e-14 cancellation residue
				// into ~1e-7 when the true distance is 0 (duplicate
				// columns), so the tolerance is looser than for the exact
				// parity properties above.
				if math.Abs(got-want) > 1e-6*(1+want) {
					return false
				}
			}
		}
		return true
	})
}

func TestParityBinaryizeAndSparsity(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		dz, do := c.dense.Sparsity()
		sz, so := c.sparse.Sparsity()
		if dz != sz || do != so {
			return false
		}
		c.dense.Binaryize()
		c.sparse.Binaryize()
		return matricesEqual(c.dense, c.sparse)
	})
}

func TestParityBuilder(t *testing.T) {
	quickCheck(t, func(c parityCase) bool {
		b := NewSparseBuilder(c.dense.Cols())
		for i := 0; i < c.dense.Rows(); i++ {
			switch i % 3 {
			case 0:
				b.AppendRowOf(c.sparse, i)
			case 1:
				b.AppendRowOf(c.dense, i)
			default:
				b.AppendDense(c.dense.Row(i))
			}
		}
		return matricesEqual(b.Build(), c.dense)
	})
}

// TestParityRowNonZeros pins the one RowNonZeros contract every consumer
// relies on: both types return the row's nonzero cells as identical
// ascending (cols, vals), including all-zero rows and 0×n matrices.
func TestParityRowNonZeros(t *testing.T) {
	rowsEqual := func(a, b RowMatrix) bool {
		for i := 0; i < a.Rows(); i++ {
			dc, dv := a.RowNonZeros(i)
			sc, sv := b.RowNonZeros(i)
			if len(dc) != len(sc) || len(dv) != len(dc) || len(sv) != len(sc) {
				return false
			}
			for k := range dc {
				if dc[k] != sc[k] || dv[k] != sv[k] || dv[k] == 0 || (k > 0 && dc[k] <= dc[k-1]) {
					return false
				}
			}
		}
		return true
	}
	quickCheck(t, func(c parityCase) bool {
		// Blank one random row so the corpus always holds an all-zero row.
		z := c.rng.Intn(c.dense.Rows())
		for j := 0; j < c.dense.Cols(); j++ {
			c.dense.Set(z, j, 0)
		}
		s := NewSparseFromDense(c.dense)
		if cols, _ := s.RowNonZeros(z); len(cols) != 0 {
			return false
		}
		return rowsEqual(c.dense, s)
	})
	empty := MustNew(0, 5)
	es := NewSparseFromDense(empty)
	if es.Rows() != 0 || es.Cols() != 5 || !rowsEqual(empty, es) {
		t.Fatalf("0x5: sparse is %dx%d", es.Rows(), es.Cols())
	}
	allZero := MustNew(4, 3)
	if !rowsEqual(allZero, NewSparseFromDense(allZero)) {
		t.Fatal("4x3 all-zero matrix: rows differ")
	}
}

func matricesEqual(a, b RowMatrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}
