package core

import (
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/traffic"
)

// TestTrainParallelParity is the PR's acceptance test: core.Train at any
// Parallelism must produce a model bit-identical to the serial path.
// Every parallel stage — sharded feature extraction, the partitioned
// distance fills, the ownership-partitioned moment accumulation, the
// concurrent per-bicluster PCG — writes disjoint output slots with the
// serial per-entry float accumulation order, so == holds on every weight,
// threshold, and feature.
func TestTrainParallelParity(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 41).Requests(500)
	benign := traffic.NewGenerator(42).Requests(700)

	serial, err := Train(attacks, benign, Config{Parallelism: 1})
	if err != nil {
		t.Fatalf("serial Train: %v", err)
	}
	probes := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 43).Requests(150),
		traffic.NewGenerator(44).Requests(300)...,
	)
	for _, workers := range []int{2, 8, 0} {
		par, err := Train(attacks, benign, Config{Parallelism: workers})
		if err != nil {
			t.Fatalf("Parallelism=%d Train: %v", workers, err)
		}
		requireIdenticalModels(t, labelFor(workers), serial, par, probes)
	}
}

func labelFor(workers int) string {
	switch workers {
	case 0:
		return "parallel-gomaxprocs"
	case 2:
		return "parallel-2"
	case 8:
		return "parallel-8"
	default:
		return "parallel"
	}
}
