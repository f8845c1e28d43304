package core

import (
	"errors"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/traffic"
)

// trainSmallModel trains a model on a compact but realistic corpus; shared
// across tests via sync.Once-style caching inside testing.
var cachedModel *Model

func smallModel(t *testing.T) *Model {
	t.Helper()
	if cachedModel != nil {
		return cachedModel
	}
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 1).Requests(1200)
	benign := traffic.NewGenerator(2).Requests(1500)
	m, err := Train(attacks, benign, Config{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	cachedModel = m
	return m
}

func TestTrainProducesSignatures(t *testing.T) {
	m := smallModel(t)
	if len(m.Signatures) == 0 {
		t.Fatal("no signatures")
	}
	for _, s := range m.Signatures {
		if s.Model == nil || len(s.Features) == 0 {
			t.Fatalf("signature %d is incomplete: %+v", s.ID, s)
		}
		if len(s.Features) > s.BiclusterFeatures {
			t.Fatalf("signature %d: pruning grew the feature set (%d > %d)", s.ID, len(s.Features), s.BiclusterFeatures)
		}
	}
}

func TestTrainStats(t *testing.T) {
	m := smallModel(t)
	st := m.Stats
	if st.CandidateFeatures != 477 {
		t.Fatalf("candidates=%d, want 477", st.CandidateFeatures)
	}
	if st.ObservedFeatures <= 0 || st.ObservedFeatures >= st.CandidateFeatures {
		t.Fatalf("observed=%d must be a strict reduction of %d", st.ObservedFeatures, st.CandidateFeatures)
	}
	if st.UniqueAttackSamples <= 0 || st.UniqueAttackSamples > st.AttackSamples {
		t.Fatalf("unique=%d of %d", st.UniqueAttackSamples, st.AttackSamples)
	}
	// Paper: matrix ~85% zeros. Ours must be clearly sparse.
	if st.ZeroFraction < 0.5 {
		t.Fatalf("zero fraction %.3f — matrix should be sparse", st.ZeroFraction)
	}
	if st.CopheneticCorrelation < 0.5 {
		t.Fatalf("cophenetic %.3f — tree fits the data poorly", st.CopheneticCorrelation)
	}
}

func TestModelDetectsAttacksAndPassesBenign(t *testing.T) {
	m := smallModel(t)
	attacks := attackgen.NewGenerator(attackgen.SQLMapProfile(), 7).Requests(300)
	benign := traffic.NewGenerator(8).Requests(600)

	ra := ids.Evaluate(m, attacks)
	if ra.TPR() < 0.6 {
		t.Fatalf("TPR=%.3f on unseen sqlmap variants, want >= 0.6", ra.TPR())
	}
	rb := ids.Evaluate(m, benign)
	if rb.FPR() > 0.02 {
		t.Fatalf("FPR=%.4f on benign traffic, want <= 0.02", rb.FPR())
	}
}

// TestConfigDefaults pins what withDefaults applies. Config's doc comments
// state the same numbers: change a default here and there together.
func TestConfigDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	for _, c := range []struct {
		field     string
		got, want float64
	}{
		{"PruneThreshold", d.PruneThreshold, 0.2},
		{"Threshold", d.Threshold, 0.5},
		{"BenignWeight", d.BenignWeight, 25},
		{"BenignWeight from -1", Config{BenignWeight: -1}.withDefaults().BenignWeight, 1},
		{"MaxClusterSamples", float64(d.MaxClusterSamples), 2500},
		{"MinAttackSamples", float64(d.MinAttackSamples), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s defaults to %v, want %v", c.field, c.got, c.want)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	benign := traffic.NewGenerator(1).Requests(10)
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 1).Requests(10)
	if _, err := Train(nil, benign, Config{}); err != ErrNoAttacks {
		t.Fatalf("want ErrNoAttacks, got %v", err)
	}
	if _, err := Train(attacks, nil, Config{}); err != ErrNoBenign {
		t.Fatalf("want ErrNoBenign, got %v", err)
	}
	// A degraded crawl below the coverage floor must refuse to train.
	if _, err := Train(attacks, benign, Config{MinAttackSamples: 50}); !errors.Is(err, ErrInsufficientSamples) {
		t.Fatalf("want ErrInsufficientSamples, got %v", err)
	}
	if _, err := Train(attacks, benign, Config{MinAttackSamples: 10}); errors.Is(err, ErrInsufficientSamples) {
		t.Fatal("corpus at the floor must be allowed to train")
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	m := smallModel(t)
	reqs := append(
		attackgen.NewGenerator(attackgen.VegaProfile(), 3).Requests(50),
		traffic.NewGenerator(4).Requests(50)...)
	for _, r := range reqs {
		for _, p := range m.Probabilities(r) {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
		}
	}
}

func TestWithSignatures(t *testing.T) {
	m := smallModel(t)
	if len(m.Signatures) < 2 {
		t.Skip("need at least 2 signatures")
	}
	ids2 := []int{m.Signatures[0].ID, m.Signatures[1].ID}
	sub, err := m.WithSignatures(ids2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Signatures) != 2 {
		t.Fatalf("got %d signatures", len(sub.Signatures))
	}
	// Original is untouched.
	if len(m.Signatures) == 2 {
		t.Fatal("WithSignatures must not mutate the original")
	}
	// Thresholds follow their signatures into the subset.
	ts := make([]float64, len(m.Signatures))
	for i := range ts {
		ts[i] = float64(i+1) / 100
	}
	tuned, err := m.WithThresholds(ts)
	if err != nil {
		t.Fatal(err)
	}
	sub, err = tuned.WithSignatures([]int{m.Signatures[1].ID})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Thresholds(); len(got) != 1 || got[0] != ts[1] {
		t.Fatalf("subset thresholds %v, want [%v]", got, ts[1])
	}
	if _, err := m.WithSignatures([]int{9999}); err == nil {
		t.Fatal("unknown id: want error")
	}
	if _, err := m.WithSignatures(nil); err == nil {
		t.Fatal("empty selection: want error")
	}
}

func TestFewerSignaturesNeverIncreaseDetection(t *testing.T) {
	m := smallModel(t)
	if len(m.Signatures) < 2 {
		t.Skip("need at least 2 signatures")
	}
	sub, err := m.WithSignatures([]int{m.Signatures[0].ID})
	if err != nil {
		t.Fatal(err)
	}
	attacks := attackgen.NewGenerator(attackgen.ArachniProfile(), 5).Requests(200)
	full := ids.Evaluate(m, attacks)
	part := ids.Evaluate(sub, attacks)
	if part.TP > full.TP {
		t.Fatalf("subset detected more (%d) than full set (%d)", part.TP, full.TP)
	}
}

// uniformThresholds returns m at threshold t on every signature.
func uniformThresholds(t *testing.T, m *Model, th float64) *Model {
	t.Helper()
	ts := make([]float64, len(m.Signatures))
	for i := range ts {
		ts[i] = th
	}
	out, err := m.WithThresholds(ts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWithThresholds(t *testing.T) {
	m := smallModel(t)
	attacks := attackgen.NewGenerator(attackgen.SQLMapProfile(), 9).Requests(150)

	low := ids.Evaluate(uniformThresholds(t, m, 0.0001), attacks)
	high := ids.Evaluate(uniformThresholds(t, m, 0.9999), attacks)
	if low.TP < high.TP {
		t.Fatalf("lower threshold must not detect less: %d vs %d", low.TP, high.TP)
	}
	for _, th := range uniformThresholds(t, m, 0.25).Thresholds() {
		if th != 0.25 {
			t.Fatalf("WithThresholds(0.25...) reports threshold %v", th)
		}
	}
	// The receiver keeps its own operating point, and Thresholds hands out
	// a copy.
	got := m.Thresholds()
	for _, th := range got {
		if th != 0.5 {
			t.Fatalf("source model threshold %v after WithThresholds, want 0.5", th)
		}
	}
	got[0] = 7
	if m.Thresholds()[0] != 0.5 {
		t.Fatal("writing the Thresholds result changed the model")
	}
	// One threshold per signature, no more and no fewer.
	for _, n := range []int{0, len(m.Signatures) - 1, len(m.Signatures) + 1} {
		if _, err := m.WithThresholds(make([]float64, n)); err == nil {
			t.Fatalf("%d thresholds for %d signatures: want error", n, len(m.Signatures))
		}
	}
}

func TestSignatureFeatures(t *testing.T) {
	m := smallModel(t)
	id := m.Signatures[0].ID
	feats, err := m.SignatureFeatures(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != len(m.Signatures[0].Features) {
		t.Fatalf("got %d features, want %d", len(feats), len(m.Signatures[0].Features))
	}
	for _, f := range feats {
		if f.Name == "" {
			t.Fatal("feature without name")
		}
	}
	if _, err := m.SignatureFeatures(12345); err == nil {
		t.Fatal("unknown signature: want error")
	}
}

func TestInspectImplementsDetector(t *testing.T) {
	var _ ids.Detector = (*Model)(nil)
	m := smallModel(t)
	v := m.Inspect(httpx.Request{RawQuery: "id=-1+union+select+1,concat(user(),char(58),version()),3+from+information_schema.tables--+", Malicious: true})
	if !v.Alert {
		t.Fatal("canonical union injection must alert")
	}
	v = m.Inspect(httpx.Request{RawQuery: "q=union+college+course+selection&page=3"})
	if v.Alert {
		t.Fatalf("benign near-miss alerted: %+v", v)
	}
}

func TestUpdateIncremental(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 21).Requests(500)
	benign := traffic.NewGenerator(22).Requests(600)
	tr, err := NewTrainer(attacks, benign, Config{})
	if err != nil {
		t.Fatal(err)
	}
	test := attackgen.NewGenerator(attackgen.SQLMapProfile(), 23).Requests(400)
	before := ids.Evaluate(tr.Model(), test)

	// Feed 40% of the test set back in, as Experiment 2 does.
	if tr, err = tr.Update(test[:160]); err != nil {
		t.Fatalf("Update: %v", err)
	}
	after := ids.Evaluate(tr.Model(), test)
	if after.TPR()+0.02 < before.TPR() {
		t.Fatalf("incremental training reduced TPR: %.3f -> %.3f", before.TPR(), after.TPR())
	}

	// Updating with nothing is a no-op.
	if next, err := tr.Update(nil); err != nil || next != tr {
		t.Fatalf("empty Update = %p, %v; want the receiver %p, nil", next, err, tr)
	}
}

func TestBinaryFeatureAblation(t *testing.T) {
	// The paper notes binary features "did not produce good results"; at
	// minimum the pipeline must run in that mode and produce a model.
	attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 31).Requests(400)
	benign := traffic.NewGenerator(32).Requests(400)
	m, err := Train(attacks, benign, Config{BinaryFeatures: true})
	if err != nil {
		t.Fatalf("binary ablation: %v", err)
	}
	if len(m.Signatures) == 0 {
		t.Fatal("binary ablation produced no signatures")
	}
	_, vals := m.SparseVector(attacks[0])
	for _, v := range vals {
		if v != 1 {
			t.Fatalf("binary mode emitted count %v", v)
		}
	}
}
