package core

import (
	"fmt"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/traffic"
)

// TestUpdateParityAcrossBackingsAndWorkers extends the training parity
// guarantee to incremental retraining: a model trained on corpus A and
// updated with corpus B must come out bit-identical whatever the worker
// count — Update's shard fan-out writes into preassigned slots, so
// scheduling order cannot leak into the weights. Every worker count is
// compared with == against the serial reference, probabilities included.
// Parity across matrix types is checked where the arithmetic runs:
// cluster.TestRunBackingParity and ml.TestTrainLogisticBackingParity.
func TestUpdateParityAcrossBackingsAndWorkers(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 31).Requests(600)
	benign := traffic.NewGenerator(32).Requests(800)
	fresh := attackgen.NewGenerator(attackgen.SQLMapProfile(), 33).Requests(200)
	probes := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 34).Requests(150),
		traffic.NewGenerator(35).Requests(300)...,
	)

	var reference *Model
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		m, err := Train(attacks, benign, Config{Parallelism: workers})
		if err != nil {
			t.Fatalf("%s: Train: %v", label, err)
		}
		before := m.Stats.AttackSamples
		if err := m.Update(fresh); err != nil {
			t.Fatalf("%s: Update: %v", label, err)
		}
		if m.Stats.AttackSamples != before+len(fresh) {
			t.Fatalf("%s: AttackSamples %d after update, want %d", label, m.Stats.AttackSamples, before+len(fresh))
		}
		if reference == nil {
			reference = m
			continue
		}
		requireIdenticalModels(t, "update-parity "+label, reference, m, probes)
	}
}
