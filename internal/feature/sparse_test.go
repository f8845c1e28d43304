package feature

import (
	"testing"
	"testing/quick"

	"psigene/internal/matrix"
	"psigene/internal/normalize"
)

// parityPayloads mixes attack-shaped and benign-shaped samples so the
// sparse/dense extraction parity is exercised on realistic nonzero patterns.
var parityPayloads = []string{
	"",
	"id=1",
	"q=union+college+course+selection&page=2",
	normalize.Normalize("id=1%27%20UNION%20SELECT%20user,password%20FROM%20mysql.user%20WHERE%201=1--"),
	normalize.Normalize("?id=-1+union+select+1,2,3,4,concat(database(),char(58),user(),char(58),version()),6,7"),
	normalize.Normalize("name=admin'--&pass=x"),
	normalize.Normalize("s=1;drop table users;--"),
}

// TestSparseVectorMatchesVector checks that SparseVector returns exactly the
// nonzero cells of Vector, in ascending column order, for fixed payloads and
// for arbitrary strings.
func TestSparseVectorMatchesVector(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	check := func(sample string) bool {
		dense := ex.Vector(sample)
		cols, vals := ex.SparseVector(sample)
		if len(cols) != len(vals) {
			return false
		}
		k := 0
		for j, v := range dense {
			if v == 0 {
				continue
			}
			if k >= len(cols) || cols[k] != j || vals[k] != v {
				return false
			}
			k++
		}
		return k == len(cols)
	}
	for _, p := range parityPayloads {
		if !check(p) {
			t.Errorf("sparse/dense mismatch on %q", p)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSparseMatrixMatchesMatrix checks the CSR training matrix cell for
// cell against a dense reference built from VectorInto rows.
func TestSparseMatrixMatchesMatrix(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	dm := matrix.MustNew(len(parityPayloads), ex.Set().Len())
	for i, p := range parityPayloads {
		ex.VectorInto(p, dm.Row(i))
	}
	sm, err := ex.SparseMatrix(parityPayloads)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Rows() != dm.Rows() || sm.Cols() != dm.Cols() {
		t.Fatalf("shape mismatch: sparse %dx%d, dense %dx%d", sm.Rows(), sm.Cols(), dm.Rows(), dm.Cols())
	}
	for i := 0; i < dm.Rows(); i++ {
		for j := 0; j < dm.Cols(); j++ {
			if dm.At(i, j) != sm.At(i, j) {
				t.Fatalf("cell (%d,%d): dense %v, sparse %v", i, j, dm.At(i, j), sm.At(i, j))
			}
		}
	}
}

// TestVectorIntoReuse checks that a reused buffer produces the same vector
// as a fresh allocation, including clearing stale state.
func TestVectorIntoReuse(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, ex.Set().Len())
	for i := range buf {
		buf[i] = 42 // stale garbage that VectorInto must clear
	}
	for _, p := range parityPayloads {
		want := ex.Vector(p)
		got := ex.VectorInto(p, buf)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("VectorInto(%q)[%d] = %v, want %v", p, j, got[j], want[j])
			}
		}
	}
}
