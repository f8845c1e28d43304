package ids

import (
	"runtime"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/ruleset"
	"psigene/internal/traffic"
)

func mixedWorkload(n int) []httpx.Request {
	reqs := attackgen.NewGenerator(attackgen.SQLMapProfile(), 1).Requests(n / 2)
	return append(reqs, traffic.NewGenerator(2).Requests(n/2)...)
}

func TestParallelEvaluateMatchesSequential(t *testing.T) {
	e := mustEngine(t, ruleset.Snort(), Options{})
	reqs := mixedWorkload(600)
	seq := Evaluate(e, reqs)
	for _, workers := range []int{1, 2, 3, 8, 1000} {
		par := ParallelEvaluate(e, reqs, workers)
		if par.Confusion() != seq.Confusion() {
			t.Fatalf("workers=%d: %+v != sequential %+v", workers, par.Confusion(), seq.Confusion())
		}
		if par.Latency.Samples != len(reqs) {
			t.Fatalf("workers=%d: %d latency samples, want one per request (%d)", workers, par.Latency.Samples, len(reqs))
		}
	}
	// Default worker count.
	if par := ParallelEvaluate(e, reqs, 0); par.Confusion() != seq.Confusion() {
		t.Fatalf("default workers: %+v != %+v", par.Confusion(), seq.Confusion())
	}
}

// TestParallelEvaluateFewerRequestsThanWorkers pins the empty-shard guard:
// with len(reqs) < workers the worker count clamps to the request count and
// the balanced split leaves no shard empty, so the merged counts still
// match the serial evaluation exactly.
func TestParallelEvaluateFewerRequestsThanWorkers(t *testing.T) {
	e := mustEngine(t, ruleset.Snort(), Options{})
	all := mixedWorkload(10)
	for _, n := range []int{1, 2, 3, 5} {
		reqs := all[:n]
		seq := Evaluate(e, reqs)
		for _, workers := range []int{4, 8, 1000} {
			par := ParallelEvaluate(e, reqs, workers)
			if par.Confusion() != seq.Confusion() {
				t.Fatalf("n=%d workers=%d: %+v != sequential %+v", n, workers, par.Confusion(), seq.Confusion())
			}
		}
	}
}

func TestParallelEvaluateEmpty(t *testing.T) {
	e := mustEngine(t, ruleset.Bro(), Options{})
	r := ParallelEvaluate(e, nil, 4)
	if r != (EvalResult{}) {
		t.Fatalf("empty input: %+v", r)
	}
}

func TestParallelEvaluateRace(t *testing.T) {
	// Exercised under -race in CI: concurrent Inspect on a shared engine.
	e := mustEngine(t, ruleset.ModSecCRS(), Options{})
	reqs := mixedWorkload(400)
	ParallelEvaluate(e, reqs, runtime.GOMAXPROCS(0)*2)
}
