package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewDimensions(t *testing.T) {
	m, err := New(3, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	if _, err := New(-1, 2); err == nil {
		t.Fatal("New(-1,2): want error")
	}
	if _, err := New(2, -1); err == nil {
		t.Fatal("New(2,-1): want error")
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	if got := m.At(2, 1); got != 6 {
		t.Fatalf("At(2,1)=%v, want 6", got)
	}
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows: want error")
	}
	empty, err := NewFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("empty: %v rows=%d", err, empty.Rows())
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := MustNew(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2)=%v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0)=%v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := MustNew(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d): want panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestRowAliases(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("Row should alias storage")
	}
}

func TestCol(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.Col(1)
	want := []float64{2, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Col(1)=%v, want %v", got, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be independent")
	}
}

func TestSelectRows(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	s, err := m.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatalf("SelectRows: %v", err)
	}
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatalf("unexpected selection: %+v", s)
	}
	if _, err := m.SelectRows([]int{3}); err == nil {
		t.Fatal("out-of-range row: want error")
	}
}

func TestSelectCols(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s, err := m.SelectCols([]int{2, 0})
	if err != nil {
		t.Fatalf("SelectCols: %v", err)
	}
	if s.At(0, 0) != 3 || s.At(1, 1) != 4 {
		t.Fatalf("unexpected selection")
	}
	if _, err := m.SelectCols([]int{-1}); err == nil {
		t.Fatal("out-of-range col: want error")
	}
}

func TestSparsity(t *testing.T) {
	m, _ := NewFromRows([][]float64{{0, 1, 2, 0}, {0, 0, 1, 3}})
	zeros, ones := m.Sparsity()
	if !almostEqual(zeros, 4.0/8.0, 1e-12) {
		t.Fatalf("zeros=%v, want 0.5", zeros)
	}
	if !almostEqual(ones, 2.0/8.0, 1e-12) {
		t.Fatalf("ones=%v, want 0.25", ones)
	}
}

func TestColumnStats(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 10}, {3, 10}})
	st := m.ColumnStats()
	if !almostEqual(st.Mean[0], 2, 1e-12) || !almostEqual(st.Mean[1], 10, 1e-12) {
		t.Fatalf("mean=%v", st.Mean)
	}
	if !almostEqual(st.Std[0], 1, 1e-12) || st.Std[1] != 0 {
		t.Fatalf("std=%v", st.Std)
	}
}

func TestStandardize(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 5}, {3, 5}})
	s, st := m.Standardize()
	if !almostEqual(s.At(0, 0), -1, 1e-12) || !almostEqual(s.At(1, 0), 1, 1e-12) {
		t.Fatalf("standardized col 0: %v %v", s.At(0, 0), s.At(1, 0))
	}
	// Constant column becomes zeros rather than NaN.
	if s.At(0, 1) != 0 || s.At(1, 1) != 0 {
		t.Fatal("constant column should standardize to zeros")
	}
	if st.Mean[1] != 5 {
		t.Fatalf("stats mean=%v", st.Mean)
	}
	// Original is untouched.
	if m.At(0, 0) != 1 {
		t.Fatal("Standardize must not mutate the receiver")
	}
}

func TestStandardizedColumnsHaveZeroMeanUnitStd(t *testing.T) {
	m, _ := NewFromRows([][]float64{
		{1, 0, 7}, {2, 0, 9}, {4, 1, 1}, {8, 3, 5}, {9, 0, 2},
	})
	s, _ := m.Standardize()
	st := s.ColumnStats()
	for j := 0; j < s.Cols(); j++ {
		if !almostEqual(st.Mean[j], 0, 1e-9) {
			t.Fatalf("col %d mean=%v, want 0", j, st.Mean[j])
		}
		if !almostEqual(st.Std[j], 1, 1e-9) {
			t.Fatalf("col %d std=%v, want 1", j, st.Std[j])
		}
	}
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatalf("Euclidean: %v", err)
	}
	if !almostEqual(d, 5, 1e-12) {
		t.Fatalf("d=%v, want 5", d)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch: want error")
	}
}

func TestDotNormAXPYScale(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot=%v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2=%v, want 5", got)
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY=%v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale=%v", y)
	}
}

func TestCondensedLayout(t *testing.T) {
	c := NewCondensed(4)
	v := 1.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			c.Set(i, j, v)
			v++
		}
	}
	// Symmetry of access.
	if c.At(2, 1) != c.At(1, 2) {
		t.Fatal("condensed access must be symmetric")
	}
	if got := len(c.Values()); got != 6 {
		t.Fatalf("len(Values)=%d, want 6", got)
	}
	// Every pair holds a distinct value (layout has no collisions).
	seen := map[float64]bool{}
	for _, x := range c.Values() {
		if seen[x] {
			t.Fatalf("duplicate value %v: layout collision", x)
		}
		seen[x] = true
	}
}

func TestCondensedPanicsOnDiagonal(t *testing.T) {
	c := NewCondensed(3)
	defer func() {
		if recover() == nil {
			t.Fatal("At(i,i): want panic")
		}
	}()
	c.At(1, 1)
}

func TestPairwiseDistances(t *testing.T) {
	m, _ := NewFromRows([][]float64{{0, 0}, {3, 4}, {0, 8}})
	d := PairwiseDistances(m)
	if !almostEqual(d.At(0, 1), 5, 1e-12) {
		t.Fatalf("d(0,1)=%v, want 5", d.At(0, 1))
	}
	if !almostEqual(d.At(0, 2), 8, 1e-12) {
		t.Fatalf("d(0,2)=%v, want 8", d.At(0, 2))
	}
	if !almostEqual(d.At(1, 2), 5, 1e-12) {
		t.Fatalf("d(1,2)=%v, want 5", d.At(1, 2))
	}
}

// Property: Euclidean distance satisfies symmetry, non-negativity, and the
// triangle inequality on random vectors.
func TestEuclideanMetricProperties(t *testing.T) {
	f := func(a, b, c [8]float64) bool {
		ab := mustDist(a[:], b[:])
		ba := mustDist(b[:], a[:])
		ac := mustDist(a[:], c[:])
		cb := mustDist(c[:], b[:])
		if ab < 0 || math.Abs(ab-ba) > 1e-9 {
			return false
		}
		return ab <= ac+cb+1e-9*(1+ab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustDist(a, b []float64) float64 {
	d, err := Euclidean(a, b)
	if err != nil {
		panic(err)
	}
	return d
}

// Property: standardizing twice is idempotent for non-constant columns.
func TestStandardizeIdempotent(t *testing.T) {
	f := func(seed [12]float64) bool {
		m, err := NewFromRows([][]float64{seed[0:3], seed[3:6], seed[6:9], seed[9:12]})
		if err != nil {
			return false
		}
		for _, v := range seed {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		s1, _ := m.Standardize()
		s2, _ := s1.Standardize()
		for i := 0; i < s1.Rows(); i++ {
			for j := 0; j < s1.Cols(); j++ {
				if math.Abs(s1.At(i, j)-s2.At(i, j)) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
