package matrix

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// ResolveWorkers maps a Parallelism-style knob to a concrete worker count
// for a job of the given size: workers <= 0 means "use every core"
// (GOMAXPROCS), and the result is clamped to the number of work items so
// no goroutine is ever spawned with nothing to do. The result is always
// at least 1.
func ResolveWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// condensedRowStart returns the offset of row i's first entry in the
// condensed layout over n items: entry (i, j) for i < j lives at
// i*(2n-i-1)/2 + (j-i-1), so row i's n-1-i entries are contiguous
// starting at i*(2n-i-1)/2.
func condensedRowStart(n, i int) int {
	return i * (2*n - i - 1) / 2
}

// triangleSplit partitions the n condensed rows into parts contiguous
// ranges balanced by pair count (row i carries n-1-i pairs, so equal row
// counts would leave the first worker with almost all the work). It
// returns parts+1 non-decreasing boundaries with bounds[0] == 0 and
// bounds[parts] == n; worker g owns rows [bounds[g], bounds[g+1]).
func triangleSplit(n, parts int) []int {
	bounds := make([]int, parts+1)
	total := n * (n - 1) / 2
	row, acc := 0, 0
	for g := 1; g < parts; g++ {
		target := total * g / parts
		for row < n && acc < target {
			acc += n - 1 - row
			row++
		}
		bounds[g] = row
	}
	bounds[parts] = n
	return bounds
}

// PairwiseDistancesParallel is PairwiseDistances fanned out over a worker
// pool. The condensed rows are partitioned into contiguous ranges balanced
// by pair count; each worker fills only its own disjoint region of the
// condensed buffer with the exact same per-entry arithmetic as the serial
// pass, so the result is bit-identical to PairwiseDistances for any worker
// count. workers <= 0 means GOMAXPROCS; workers == 1 is the serial path.
func PairwiseDistancesParallel(m RowMatrix, workers int) *Condensed {
	n := m.Rows()
	workers = ResolveWorkers(workers, n-1)
	if workers <= 1 || n < 3 {
		return PairwiseDistances(m)
	}
	c := NewCondensed(n)
	bounds := triangleSplit(n, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		lo, hi := bounds[g], bounds[g+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			pos := condensedRowStart(n, lo)
			for i := lo; i < hi; i++ {
				for j := i + 1; j < n; j++ {
					c.data[pos] = math.Sqrt(m.RowSquaredEuclidean(i, j))
					pos++
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return c
}

// StandardizedColumnDistancesParallel is StandardizedColumnDistances fanned
// out over a worker pool, bit-identical to the serial function for any
// worker count. Determinism comes from ownership partitioning rather than
// tiled reduction: combining per-tile partial sums would reorder float
// additions, so instead every worker scans all selected rows in order but
// accumulates only the entries it owns. Worker w owns selected column k
// when k % workers == w, which covers sum[k], sumsq[k], and every Gram
// pair whose first-iterated element is k. Because RowNonZeros emits row
// nonzeros in ascending global-column order, the first-iterated element of
// any column pair is the same in every row, so each Gram entry has exactly
// one owner and its accumulation order (row-major) matches the serial pass
// exactly. The output distance loop is independent per entry and is
// partitioned over contiguous condensed rows. workers <= 0 means
// GOMAXPROCS; workers == 1 delegates to the serial implementation.
func StandardizedColumnDistancesParallel(m RowMatrix, st ColStats, rowIdx, colIdx []int, workers int) (*Condensed, error) {
	nRows := m.Rows()
	if rowIdx != nil {
		nRows = len(rowIdx)
	}
	workers = ResolveWorkers(workers, nRows)
	if workers <= 1 {
		return StandardizedColumnDistances(m, st, rowIdx, colIdx)
	}
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
	// The serial pass reports the first out-of-range row in rowIdx order;
	// validating up front preserves that error exactly.
	for _, i := range rowIdx {
		if i < 0 || i >= m.Rows() {
			return nil, fmt.Errorf("matrix: select row %d out of range %d", i, m.Rows())
		}
	}

	sum := make([]float64, d)
	sumsq := make([]float64, d)
	gram := make([]float64, d*d) // upper triangle used

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			selCols := make([]int, 0, d)
			selVals := make([]float64, 0, d)
			accumulate := func(i int) {
				selCols, selVals = selCols[:0], selVals[:0]
				cols, vals := m.RowNonZeros(i)
				for k, j := range cols {
					if local[j] >= 0 {
						selCols = append(selCols, local[j])
						selVals = append(selVals, vals[k])
					}
				}
				for k, lj := range selCols {
					if lj%workers != w { // not ours: another worker owns this entry
						continue
					}
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
			}
			if rowIdx != nil {
				for _, i := range rowIdx {
					accumulate(i)
				}
			} else {
				for i := 0; i < m.Rows(); i++ {
					accumulate(i)
				}
			}
		}(w)
	}
	wg.Wait()

	n := float64(nRows)
	selfSq := make([]float64, d)
	for k, j := range colIdx {
		if st.Std[j] == 0 {
			continue
		}
		mu, sd := st.Mean[j], st.Std[j]
		selfSq[k] = (sumsq[k] - 2*mu*sum[k] + n*mu*mu) / (sd * sd)
	}
	out := NewCondensed(d)
	outWorkers := ResolveWorkers(workers, d-1)
	if outWorkers <= 1 || d < 3 {
		fillStandardizedDistances(out, colIdx, st, sum, gram, selfSq, n, 0, d)
		return out, nil
	}
	bounds := triangleSplit(d, outWorkers)
	var owg sync.WaitGroup
	for g := 0; g < outWorkers; g++ {
		lo, hi := bounds[g], bounds[g+1]
		if lo >= hi {
			continue
		}
		owg.Add(1)
		go func(lo, hi int) {
			defer owg.Done()
			fillStandardizedDistances(out, colIdx, st, sum, gram, selfSq, n, lo, hi)
		}(lo, hi)
	}
	owg.Wait()
	return out, nil
}

// fillStandardizedDistances writes condensed rows [lo, hi) of the output
// distance matrix from the accumulated moments, using the exact per-entry
// expressions of the serial StandardizedColumnDistances loop.
func fillStandardizedDistances(out *Condensed, colIdx []int, st ColStats, sum, gram, selfSq []float64, n float64, lo, hi int) {
	d := len(colIdx)
	pos := condensedRowStart(d, lo)
	for a := lo; a < hi; a++ {
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
}
