package feature

import (
	"testing"

	"psigene/internal/matrix"
	"psigene/internal/normalize"
)

// parityPayloads mixes attack-shaped and benign-shaped samples so the
// extraction parity tests run on realistic nonzero patterns.
var parityPayloads = []string{
	"",
	"id=1",
	"q=union+college+course+selection&page=2",
	normalize.Normalize("id=1%27%20UNION%20SELECT%20user,password%20FROM%20mysql.user%20WHERE%201=1--"),
	normalize.Normalize("?id=-1+union+select+1,2,3,4,concat(database(),char(58),user(),char(58),version()),6,7"),
	normalize.Normalize("name=admin'--&pass=x"),
	normalize.Normalize("s=1;drop table users;--"),
}

// TestSparseMatrixMatchesMatrix checks the CSR training matrix cell for
// cell against a dense reference built from SparseVector rows.
func TestSparseMatrixMatchesMatrix(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	dm := matrix.MustNew(len(parityPayloads), ex.set.Len())
	for i, p := range parityPayloads {
		cols, vals := ex.SparseVector(p)
		for k, j := range cols {
			dm.Row(i)[j] = vals[k]
		}
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
