package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionRates(t *testing.T) {
	var c Confusion
	// 8 attacks: 6 detected; 100 benign: 2 flagged.
	for i := 0; i < 6; i++ {
		c.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(false, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(true, false)
	}
	for i := 0; i < 98; i++ {
		c.Add(false, false)
	}
	if got := c.TPR(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("TPR=%v, want 0.75", got)
	}
	if got := c.FPR(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("FPR=%v, want 0.02", got)
	}
	if c.String() == "" {
		t.Fatal("String should render")
	}
}

func TestConfusionZeroDenominators(t *testing.T) {
	var c Confusion
	if c.TPR() != 0 || c.FPR() != 0 {
		t.Fatal("empty confusion must report zero rates, not NaN")
	}
}

func TestROCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	pts, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc := AUC(pts); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("AUC=%v, want 1 for perfect ranking", auc)
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.TPR != 0 || first.FPR != 0 {
		t.Fatalf("curve must start at (0,0), got %+v", first)
	}
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("curve must end at (1,1), got %+v", last)
	}
}

func TestROCRandomClassifierAUCHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Intn(2) == 0
	}
	pts, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc := AUC(pts); math.Abs(auc-0.5) > 0.05 {
		t.Fatalf("AUC=%v, want ~0.5 for random scores", auc)
	}
}

func TestROCHandlesTies(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	pts, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	// All tied: the curve is (0,0) -> (1,1) directly.
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if auc := AUC(pts); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("AUC=%v, want 0.5", auc)
	}
}

func TestROCErrors(t *testing.T) {
	if _, err := ROC([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch: want error")
	}
	if _, err := ROC(nil, nil); err == nil {
		t.Fatal("empty: want error")
	}
	if _, err := ROC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Fatal("single class: want error")
	}
}

// Property: ROC curves are monotone non-decreasing in both axes and AUC is
// within [0, 1].
func TestROCMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]bool, n)
		labels[0], labels[1] = true, false // guarantee both classes
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*10) / 10 // force ties
			if i >= 2 {
				labels[i] = rng.Intn(2) == 0
			}
		}
		pts, err := ROC(scores, labels)
		if err != nil {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].TPR < pts[i-1].TPR || pts[i].FPR < pts[i-1].FPR {
				return false
			}
		}
		auc := AUC(pts)
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
