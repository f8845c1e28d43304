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

// TestUpdateParityBinaryFeatures runs Update on a BinaryFeatures model:
// the stored extra rows must hold presence flags only, and the retrained
// model must be bit-identical at 1 and 8 workers.
func TestUpdateParityBinaryFeatures(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 41).Requests(500)
	benign := traffic.NewGenerator(42).Requests(600)
	fresh := attackgen.NewGenerator(attackgen.SQLMapProfile(), 43).Requests(200)
	probes := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 44).Requests(150),
		traffic.NewGenerator(45).Requests(300)...,
	)

	var reference *Model
	for _, workers := range []int{1, 8} {
		label := fmt.Sprintf("binary workers=%d", workers)
		m, err := Train(attacks, benign, Config{BinaryFeatures: true, Parallelism: workers})
		if err != nil {
			t.Fatalf("%s: Train: %v", label, err)
		}
		if err := m.Update(fresh); err != nil {
			t.Fatalf("%s: Update: %v", label, err)
		}
		var rows int
		for id, extras := range m.extra {
			for _, e := range extras {
				rows++
				for _, v := range e.vals {
					if v != 1 {
						t.Fatalf("%s: bicluster %d stores extra value %v, want 1", label, id, v)
					}
				}
			}
		}
		if rows == 0 {
			t.Fatalf("%s: Update stored no extra rows", label)
		}
		if reference == nil {
			reference = m
			continue
		}
		requireIdenticalModels(t, "update-parity "+label, reference, m, probes)
	}
}
