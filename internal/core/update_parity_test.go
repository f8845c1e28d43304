package core

import (
	"fmt"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
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
		tr, err := NewTrainer(attacks, benign, Config{Parallelism: workers})
		if err != nil {
			t.Fatalf("%s: NewTrainer: %v", label, err)
		}
		before := tr.Model().Stats.AttackSamples
		if tr, err = tr.Update(fresh); err != nil {
			t.Fatalf("%s: Update: %v", label, err)
		}
		m := tr.Model()
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
		tr, err := NewTrainer(attacks, benign, Config{BinaryFeatures: true, Parallelism: workers})
		if err != nil {
			t.Fatalf("%s: NewTrainer: %v", label, err)
		}
		if tr, err = tr.Update(fresh); err != nil {
			t.Fatalf("%s: Update: %v", label, err)
		}
		m := tr.Model()
		var rows int
		for id, extras := range tr.extra {
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

// TestUpdateLeavesPreviousModel pins the Trainer contract: Update builds a
// new Model and leaves the receiver's Model — which may be serving —
// bit-identical, so two Updates of one Trainer with the same batch agree.
func TestUpdateLeavesPreviousModel(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 51).Requests(500)
	benign := traffic.NewGenerator(52).Requests(600)
	fresh := attackgen.NewGenerator(attackgen.SQLMapProfile(), 53).Requests(200)
	probes := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 54).Requests(150),
		traffic.NewGenerator(55).Requests(300)...,
	)

	root, err := NewTrainer(attacks, benign, Config{})
	if err != nil {
		t.Fatalf("NewTrainer: %v", err)
	}
	old := root.Model()
	before := probabilities(old, probes)
	stats := old.Stats

	a, err := root.Update(fresh)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	b, err := root.Update(fresh)
	if err != nil {
		t.Fatalf("second Update: %v", err)
	}
	if root.Model() != old || old.Stats != stats {
		t.Fatal("Update replaced or changed the receiver's Model")
	}
	after := probabilities(old, probes)
	for i := range before {
		for k := range before[i] {
			if before[i][k] != after[i][k] {
				t.Fatalf("old model's probability changed on %q: %v -> %v", probes[i].Payload(), before[i][k], after[i][k])
			}
		}
	}
	requireIdenticalModels(t, "same batch twice", a.Model(), b.Model(), probes)

	updated := probabilities(a.Model(), probes)
	changed := 0
	for i := range before {
		for k := range before[i] {
			if before[i][k] != updated[i][k] {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("Update changed no probe probability; the test is vacuous")
	}
}

// TestUpdateBranchesDoNotAlias updates one Trainer twice with different
// batches. The sibling branch must not write into the other branch's
// added samples, so a later Update on the first branch equals the same
// chain replayed from scratch. The branch batches are small so that
// their rows fit in the spare capacity of the parent's sample slices,
// where an unclipped append would share one array between the branches.
func TestUpdateBranchesDoNotAlias(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 61).Requests(500)
	benign := traffic.NewGenerator(62).Requests(600)
	batch := func(seed int64, n int) []httpx.Request {
		return attackgen.NewGenerator(attackgen.SQLMapProfile(), seed).Requests(n)
	}
	b1, b2, b3, b4 := batch(63, 100), batch(64, 5), batch(65, 5), batch(66, 100)
	probes := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 67).Requests(150),
		traffic.NewGenerator(68).Requests(300)...,
	)

	root, err := NewTrainer(attacks, benign, Config{})
	if err != nil {
		t.Fatalf("NewTrainer: %v", err)
	}
	chain := func(tr *Trainer, batches ...[]httpx.Request) *Trainer {
		t.Helper()
		for i, b := range batches {
			if tr, err = tr.Update(b); err != nil {
				t.Fatalf("Update %d: %v", i, err)
			}
		}
		return tr
	}
	mid := chain(root, b1)
	a := chain(mid, b2)
	chain(mid, b3)
	got := chain(a, b4)
	want := chain(root, b1, b2, b4)
	requireIdenticalModels(t, "branched update", want.Model(), got.Model(), probes)
}

// probabilities scores every probe against m.
func probabilities(m *Model, probes []httpx.Request) [][]float64 {
	out := make([][]float64, len(probes))
	for i, r := range probes {
		out[i] = m.Probabilities(r)
	}
	return out
}
