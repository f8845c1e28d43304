package feature

import (
	"sync"
	"sync/atomic"

	"psigene/internal/matrix"
)

// SparseMatrixParallel is SparseMatrix fanned out over a worker pool:
// regex matching dominates training cost and each sample is independent,
// so workers claim samples from a shared atomic counter and write each
// extraction into its preassigned slot. The rows are then appended to the
// CSR builder in sample order, making the result bit-identical to the
// serial SparseMatrix for any worker count. workers <= 0 means GOMAXPROCS;
// workers == 1 is the serial path.
func (e *Extractor) SparseMatrixParallel(samples []string, workers int) (*matrix.Sparse, error) {
	workers = matrix.ResolveWorkers(workers, len(samples))
	if workers <= 1 {
		return e.SparseMatrix(samples)
	}
	type row struct {
		cols []int
		vals []float64
	}
	rows := make([]row, len(samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(samples) {
					return
				}
				rows[i].cols, rows[i].vals = e.SparseVector(samples[i])
			}
		}()
	}
	wg.Wait()
	b := matrix.NewSparseBuilder(len(e.set.Features))
	for _, r := range rows {
		if err := b.AppendSparse(r.cols, r.vals); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
