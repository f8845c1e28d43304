package core

import (
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/traffic"
)

func tuningSets() (validation, testAttacks, testBenign []httpx.Request) {
	validation = append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 201).Requests(400),
		traffic.NewGenerator(202).Requests(4000)...)
	testAttacks = attackgen.NewGenerator(attackgen.SQLMapProfile(), 203).Requests(400)
	testBenign = traffic.NewGenerator(204).Requests(4000)
	return
}

func TestTuneThresholdsMeetsBudget(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 205).Requests(1000)
	benign := traffic.NewGenerator(206).Requests(2500)
	m, err := Train(attacks, benign, Config{})
	if err != nil {
		t.Fatal(err)
	}
	validation, testAttacks, testBenign := tuningSets()

	const budget = 0.001
	thresholds, err := m.TuneThresholds(validation, budget)
	if err != nil {
		t.Fatalf("TuneThresholds: %v", err)
	}
	if len(thresholds) != len(m.Signatures) {
		t.Fatalf("got %d thresholds for %d signatures", len(thresholds), len(m.Signatures))
	}
	// Tuning only reports: the source model keeps its thresholds.
	for i, th := range m.Thresholds() {
		if th != 0.5 {
			t.Fatalf("signature %d threshold %v after tuning, want the untouched 0.5", m.Signatures[i].ID, th)
		}
	}
	tuned, err := m.WithThresholds(thresholds)
	if err != nil {
		t.Fatal(err)
	}
	// On held-out benign traffic the tuned model stays near the budget
	// (leave generous slack: held-out differs from validation).
	r := ids.Evaluate(tuned, testBenign)
	if r.FPR() > budget*float64(len(m.Signatures))*3 {
		t.Fatalf("tuned FPR %.5f far above budget %.5f", r.FPR(), budget)
	}
	// And still detects.
	ra := ids.Evaluate(tuned, testAttacks)
	if ra.TPR() < 0.5 {
		t.Fatalf("tuned TPR %.3f collapsed", ra.TPR())
	}
}

func TestTuneThresholdsLooseBudgetRaisesRecall(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 207).Requests(800)
	benign := traffic.NewGenerator(208).Requests(2000)
	validation, testAttacks, _ := tuningSets()

	m, err := Train(attacks, benign, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tuneAt := func(budget float64) *Model {
		ts, err := m.TuneThresholds(validation, budget)
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := m.WithThresholds(ts)
		if err != nil {
			t.Fatal(err)
		}
		return tuned
	}
	strict, loose := tuneAt(0.0001), tuneAt(0.01)
	rs := ids.Evaluate(strict, testAttacks)
	rl := ids.Evaluate(loose, testAttacks)
	if rl.TP < rs.TP {
		t.Fatalf("looser budget detected less: %d < %d", rl.TP, rs.TP)
	}
}

func TestTuneThresholdsErrors(t *testing.T) {
	m := smallModel(t)
	if _, err := m.TuneThresholds(nil, 0.01); err == nil {
		t.Fatal("empty validation: want error")
	}
	benignOnly := traffic.NewGenerator(1).Requests(50)
	if _, err := m.TuneThresholds(benignOnly, 0.01); err == nil {
		t.Fatal("single-class validation: want error")
	}
	mixed := append(benignOnly, attackgen.NewGenerator(attackgen.SQLMapProfile(), 2).Requests(50)...)
	if _, err := m.TuneThresholds(mixed, -0.1); err == nil {
		t.Fatal("negative budget: want error")
	}
	if _, err := m.TuneThresholds(mixed, 1.0); err == nil {
		t.Fatal("budget of 1: want error")
	}
}
