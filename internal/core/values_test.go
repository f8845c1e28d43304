package core

import (
	"reflect"
	"sync"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/traffic"
)

// modelSnapshot is everything a Model answers about a probe set.
type modelSnapshot struct {
	probs      [][]float64
	verdicts   []ids.Verdict
	thresholds []float64
}

func snapshot(m *Model, probes []httpx.Request) modelSnapshot {
	s := modelSnapshot{thresholds: m.Thresholds()}
	for _, r := range probes {
		s.probs = append(s.probs, m.Probabilities(r))
		s.verdicts = append(s.verdicts, m.Inspect(r))
	}
	return s
}

// TestModelsAreValues pins that a Model is a value: Models derived from
// one Trainer share *Signatures and the extractor, yet deriving new
// operating points from any of them — a threshold sweep, tuning, a
// signature subset, an incremental update — changes no probability,
// verdict or threshold of any other. The derivations run while the
// original models keep serving, so -race also sees that nothing is
// written under a live Model.
func TestModelsAreValues(t *testing.T) {
	tr, err := NewTrainer(
		attackgen.NewGenerator(attackgen.CrawlProfile(), 61).Requests(600),
		traffic.NewGenerator(62).Requests(800), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m9 := tr.Model()
	if len(m9.Signatures) < 3 {
		t.Skipf("need at least 3 signatures, got %d", len(m9.Signatures))
	}
	var keep []int
	for _, s := range m9.Signatures[:len(m9.Signatures)-2] {
		keep = append(keep, s.ID)
	}
	m7, err := m9.WithSignatures(keep)
	if err != nil {
		t.Fatal(err)
	}
	next, err := tr.Update(attackgen.NewGenerator(attackgen.SQLMapProfile(), 63).Requests(120))
	if err != nil {
		t.Fatal(err)
	}
	probes := append(
		attackgen.NewGenerator(attackgen.ArachniProfile(), 64).Requests(80),
		traffic.NewGenerator(65).Requests(160)...)
	validation := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 66).Requests(100),
		traffic.NewGenerator(67).Requests(1000)...)

	names := []string{"m9", "m7", "next"}
	models := []*Model{m9, m7, next.Model()}
	before := make([]modelSnapshot, len(models))
	for i, m := range models {
		before[i] = snapshot(m, probes)
	}

	// Keep the originals serving while operating points are derived.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, m := range models {
		wg.Add(1)
		go func(m *Model) {
			defer wg.Done()
			for {
				for _, r := range probes {
					select {
					case <-stop:
						return
					default:
					}
					m.Inspect(r)
				}
			}
		}(m)
	}

	for i, m := range models {
		name := names[i]
		// Sweep.
		for _, th := range []float64{0.01, 0.99} {
			swept := uniformThresholds(t, m, th)
			for _, r := range probes {
				swept.Inspect(r)
			}
		}
		// Tune, and build the tuned model.
		ts, err := m.TuneThresholds(validation, 0.001)
		if err != nil {
			t.Fatalf("%s: TuneThresholds: %v", name, err)
		}
		tuned, err := m.WithThresholds(ts)
		if err != nil {
			t.Fatalf("%s: WithThresholds: %v", name, err)
		}
		if got := tuned.Thresholds(); !reflect.DeepEqual(got, ts) {
			t.Fatalf("%s: tuned model thresholds %v, want %v", name, got, ts)
		}
		// Subset the tuned model.
		if _, err := tuned.WithSignatures([]int{m.Signatures[0].ID}); err != nil {
			t.Fatalf("%s: WithSignatures: %v", name, err)
		}
	}
	// And update once more from the Trainer behind next.
	if _, err := next.Update(attackgen.NewGenerator(attackgen.VegaProfile(), 68).Requests(60)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for i, m := range models {
		name, after, want := names[i], snapshot(m, probes), before[i]
		if !reflect.DeepEqual(after.thresholds, want.thresholds) {
			t.Errorf("%s: thresholds moved: %v -> %v", name, want.thresholds, after.thresholds)
		}
		for k := range probes {
			if !reflect.DeepEqual(after.probs[k], want.probs[k]) {
				t.Errorf("%s: probabilities moved on %q: %v -> %v", name, probes[k].Payload(), want.probs[k], after.probs[k])
				break
			}
			if !reflect.DeepEqual(after.verdicts[k], want.verdicts[k]) {
				t.Errorf("%s: verdict moved on %q: %+v -> %+v", name, probes[k].Payload(), want.verdicts[k], after.verdicts[k])
				break
			}
		}
	}
}
