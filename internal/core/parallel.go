package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"psigene/internal/cluster"
	"psigene/internal/matrix"
)

// trainSignatures fits one logistic signature per given bicluster over
// cfg.Parallelism workers. NewTrainer passes every active bicluster and
// no extra rows; Trainer.Update passes the biclusters that received
// samples and the Trainer's extra rows keyed by bicluster ID. Each
// bicluster's problem is independent — trainSignature only reads the
// shared matrices — and every result lands in its bicluster's preassigned
// slot, so signature order and every trained coefficient are identical at
// any worker count.
// Errors are reported for the lowest bicluster index that failed.
func trainSignatures(observed matrix.RowMatrix, weights []float64, benignMat matrix.RowMatrix, benignW []float64, bics []cluster.Bicluster, extra map[int][]extraSample, cfg Config) ([]*Signature, error) {
	workers := matrix.ResolveWorkers(cfg.Parallelism, len(bics))
	sigs := make([]*Signature, len(bics))
	errs := make([]error, len(bics))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bics) {
					return
				}
				sigs[i], errs[i] = trainSignature(observed, weights, benignMat, benignW, bics[i], extra[bics[i].ID], cfg)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("signature %d: %w", bics[i].ID, err)
		}
	}
	return sigs, nil
}
