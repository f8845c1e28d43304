package feature

import (
	"strconv"
	"testing"
	"testing/quick"
)

// parallelCorpus derives a few hundred distinct samples from the parity
// payloads so the worker pool actually has shards to fight over.
func parallelCorpus() []string {
	out := make([]string, 0, len(parityPayloads)*40)
	for i := 0; i < 40; i++ {
		for _, p := range parityPayloads {
			out = append(out, p+"&i="+strconv.Itoa(i))
		}
	}
	return out
}

// TestSparseMatrixParallelParity demands cell-exact (==) agreement between
// the serial and parallel extractions: each sample lands in its
// preassigned slot, so assembly order — and therefore the CSR layout — is
// identical regardless of worker count.
func TestSparseMatrixParallelParity(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	samples := parallelCorpus()
	want, err := ex.SparseMatrix(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8, 0} {
		got, err := ex.SparseMatrixParallel(samples, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d", w, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for i := 0; i < want.Rows(); i++ {
			for j := 0; j < want.Cols(); j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("workers=%d: cell (%d,%d) = %v, want %v", w, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// TestSparseMatrixParallelRandomWorkers is the testing/quick property over
// random worker counts: any count, including counts far above the sample
// count, must reproduce the serial matrix exactly.
func TestSparseMatrixParallelRandomWorkers(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	samples := parallelCorpus()[:60]
	want, err := ex.SparseMatrix(samples)
	if err != nil {
		t.Fatal(err)
	}
	f := func(workers uint8) bool {
		w := int(workers%90) + 1 // 1..90, often exceeding len(samples)
		got, err := ex.SparseMatrixParallel(samples, w)
		if err != nil {
			return false
		}
		for i := 0; i < want.Rows(); i++ {
			wc, wv := want.RowNonZeros(i)
			gc, gv := got.RowNonZeros(i)
			if len(wc) != len(gc) {
				return false
			}
			for k := range wc {
				if wc[k] != gc[k] || wv[k] != gv[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSparseMatrixParallelEmpty(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.SparseMatrixParallel(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 {
		t.Fatalf("empty corpus: %d rows, want 0", m.Rows())
	}
}
