package ml

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"psigene/internal/matrix"
)

func TestSigmoid(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1000, 1},
		{-1000, 0},
	}
	for _, c := range cases {
		if got := Sigmoid(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Sigmoid(%v)=%v, want %v", c.z, got, c.want)
		}
	}
	// Symmetry: g(z) + g(-z) = 1.
	for _, z := range []float64{0.1, 1, 3.7, 42} {
		if got := Sigmoid(z) + Sigmoid(-z); math.Abs(got-1) > 1e-12 {
			t.Fatalf("Sigmoid(%v)+Sigmoid(-%v)=%v, want 1", z, z, got)
		}
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a == b {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return Sigmoid(lo) <= Sigmoid(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// separableData builds a linearly separable two-class problem.
func separableData(rng *rand.Rand, n int) (*matrix.Dense, []float64) {
	rows := make([][]float64, 0, 2*n)
	y := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{rng.NormFloat64() + 3, rng.NormFloat64()})
		y = append(y, 1)
		rows = append(rows, []float64{rng.NormFloat64() - 3, rng.NormFloat64()})
		y = append(y, 0)
	}
	m, _ := matrix.NewFromRows(rows)
	return m, y
}

func TestTrainLogisticSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := separableData(rng, 100)
	model, err := TrainLogistic(x, y, nil, TrainOptions{})
	if err != nil {
		t.Fatalf("TrainLogistic: %v", err)
	}
	var correct int
	for i := 0; i < x.Rows(); i++ {
		p := model.Predict(x.Row(i))
		if (p >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	acc := float64(correct) / float64(x.Rows())
	if acc < 0.98 {
		t.Fatalf("training accuracy %.3f, want >= 0.98 on separable data", acc)
	}
	// The separating dimension must carry the dominant positive weight.
	if model.Weights[0] <= 0 || math.Abs(model.Weights[0]) < math.Abs(model.Weights[1]) {
		t.Fatalf("weights=%v: dimension 0 should dominate positively", model.Weights)
	}
}

func TestTrainLogisticProbabilitiesCalibrated(t *testing.T) {
	// On symmetric data the decision boundary passes near the origin:
	// P(x=0) ≈ 0.5.
	rng := rand.New(rand.NewSource(2))
	x, y := separableData(rng, 200)
	model, err := TrainLogistic(x, y, nil, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The decision boundary along dimension 0 (-bias/w0) sits near zero for
	// symmetric classes.
	boundary := -model.Bias / model.Weights[0]
	if math.Abs(boundary) > 0.5 {
		t.Fatalf("decision boundary at %v, want near 0", boundary)
	}
	if model.Predict([]float64{6, 0}) < 0.95 {
		t.Fatal("deep positive point should have high probability")
	}
	if model.Predict([]float64{-6, 0}) > 0.05 {
		t.Fatal("deep negative point should have low probability")
	}
}

func TestTrainLogisticErrors(t *testing.T) {
	x, _ := matrix.NewFromRows([][]float64{{1}, {2}})
	if _, err := TrainLogistic(x, []float64{1}, nil, TrainOptions{}); err == nil {
		t.Fatal("label length mismatch: want error")
	}
	if _, err := TrainLogistic(x, []float64{1, 2}, nil, TrainOptions{}); err == nil {
		t.Fatal("non-binary label: want error")
	}
	if _, err := TrainLogistic(x, []float64{1, 1}, nil, TrainOptions{}); err != ErrOneClass {
		t.Fatal("single class: want ErrOneClass")
	}
	if _, err := TrainLogistic(x, []float64{1, 0}, []float64{1}, TrainOptions{}); err == nil {
		t.Fatal("weight length mismatch: want error")
	}
	empty := matrix.MustNew(0, 3)
	if _, err := TrainLogistic(empty, nil, nil, TrainOptions{}); err != ErrNoData {
		t.Fatal("empty matrix: want ErrNoData")
	}
}

// TestWeightedEqualsRepeated verifies sample weights are equivalent to
// repeating samples — the property that lets a deduplicated corpus train
// the same model as the expanded one.
func TestWeightedEqualsRepeated(t *testing.T) {
	x, _ := matrix.NewFromRows([][]float64{{2, 1}, {-2, 0}, {1, -1}})
	y := []float64{1, 0, 1}
	w := []float64{3, 2, 1}

	var expRows [][]float64
	var expY []float64
	for i := 0; i < 3; i++ {
		for k := 0; k < int(w[i]); k++ {
			expRows = append(expRows, append([]float64(nil), x.Row(i)...))
			expY = append(expY, y[i])
		}
	}
	xe, _ := matrix.NewFromRows(expRows)

	opts := TrainOptions{L2: 0.01, GradTol: 1e-10}
	mw, err := TrainLogistic(x, y, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	me, err := TrainLogistic(xe, expY, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mw.Bias-me.Bias) > 1e-5 {
		t.Fatalf("bias: weighted %v vs expanded %v", mw.Bias, me.Bias)
	}
	for j := range mw.Weights {
		if math.Abs(mw.Weights[j]-me.Weights[j]) > 1e-5 {
			t.Fatalf("weight %d: weighted %v vs expanded %v", j, mw.Weights[j], me.Weights[j])
		}
	}
}

func TestPredictPanicsOnDimensionMismatch(t *testing.T) {
	m := &LogisticModel{Weights: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestTheta(t *testing.T) {
	m := &LogisticModel{Bias: -3.7, Weights: []float64{0.2, 0.7}}
	th := m.Theta()
	if len(th) != 3 || th[0] != -3.7 || th[2] != 0.7 {
		t.Fatalf("Theta=%v", th)
	}
}

func TestPruneDropsNoiseFeatures(t *testing.T) {
	// Feature 0 is informative; features 1..4 are pure noise.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 0, 400)
	y := make([]float64, 0, 400)
	for i := 0; i < 200; i++ {
		pos := []float64{rng.NormFloat64() + 3}
		neg := []float64{rng.NormFloat64() - 3}
		for j := 0; j < 4; j++ {
			pos = append(pos, rng.NormFloat64())
			neg = append(neg, rng.NormFloat64())
		}
		rows = append(rows, pos, neg)
		y = append(y, 1, 0)
	}
	x, _ := matrix.NewFromRows(rows)
	model, err := TrainLogistic(x, y, nil, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prune(x, y, nil, model, TrainOptions{}, 0.2)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if len(pr.Kept) >= 5 {
		t.Fatalf("pruning kept all %d features", len(pr.Kept))
	}
	found := false
	for _, k := range pr.Kept {
		if k == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("informative feature 0 was pruned; kept=%v", pr.Kept)
	}
	if len(pr.Kept)+len(pr.Dropped) != 5 {
		t.Fatalf("kept+dropped=%d, want 5", len(pr.Kept)+len(pr.Dropped))
	}
	if len(pr.Model.Weights) != len(pr.Kept) {
		t.Fatalf("refit model has %d weights for %d kept features", len(pr.Model.Weights), len(pr.Kept))
	}
}

func TestPruneKeepsAtLeastOneFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := separableData(rng, 50)
	model, err := TrainLogistic(x, y, nil, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prune(x, y, nil, model, TrainOptions{}, 10) // absurd threshold
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Kept) != 1 {
		t.Fatalf("kept=%v, want exactly the strongest feature", pr.Kept)
	}
}

func TestPruneDimensionMismatch(t *testing.T) {
	x, _ := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}})
	model := &LogisticModel{Weights: []float64{1}}
	if _, err := Prune(x, []float64{0, 1}, nil, model, TrainOptions{}, 0.1); err == nil {
		t.Fatal("want error on weight/column mismatch")
	}
}

// TestOptimumHasZeroGradient is a black-box check of the PCG/Newton
// optimizer: at the returned parameters, the numerically estimated gradient
// of the L2-regularized negative log-likelihood is ~0 in every coordinate.
func TestOptimumHasZeroGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := separableData(rng, 60)
	const l2 = 0.05
	model, err := TrainLogistic(x, y, nil, TrainOptions{L2: l2, GradTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}

	// Independent loss implementation.
	loss := func(theta []float64) float64 {
		var l float64
		for i := 0; i < x.Rows(); i++ {
			z := theta[0]
			for j, v := range x.Row(i) {
				z += theta[j+1] * v
			}
			l += math.Log(1+math.Exp(z)) - y[i]*z
		}
		for j := 1; j < len(theta); j++ {
			l += 0.5 * l2 * theta[j] * theta[j]
		}
		return l
	}
	theta := model.Theta()
	const h = 1e-5
	for j := range theta {
		up := append([]float64(nil), theta...)
		dn := append([]float64(nil), theta...)
		up[j] += h
		dn[j] -= h
		grad := (loss(up) - loss(dn)) / (2 * h)
		if math.Abs(grad) > 1e-3 {
			t.Fatalf("gradient[%d]=%v at the reported optimum", j, grad)
		}
	}
}

// TestTrainLogisticBackingParity: TrainLogistic and Prune on the dense
// reference and on its CSR copy must agree with == on the bias, every
// weight and the kept feature set. The solver touches the matrix only
// through RowDot and RowNonZeros, which skip exactly the zero terms.
func TestTrainLogisticBackingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, d = 300, 8
	rows := make([][]float64, n)
	y := make([]float64, n)
	w := make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if rng.Float64() < 0.2 {
				rows[i][j] = float64(1 + rng.Intn(4))
			}
		}
		if rows[i][0]+rows[i][1]+rng.NormFloat64() > 1.5 {
			y[i] = 1
		}
		w[i] = float64(1 + i%3)
	}
	dense, _ := matrix.NewFromRows(rows)
	sparse := matrix.NewSparseFromDense(dense)
	dm, err := TrainLogistic(dense, y, w, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := TrainLogistic(sparse, y, w, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameModel := func(stage string, a, b *LogisticModel) {
		t.Helper()
		if a.Bias != b.Bias || len(a.Weights) != len(b.Weights) {
			t.Fatalf("%s: bias %v (%d weights), want %v (%d weights)", stage, b.Bias, len(b.Weights), a.Bias, len(a.Weights))
		}
		for j := range a.Weights {
			if a.Weights[j] != b.Weights[j] {
				t.Fatalf("%s: weight %d = %v, want %v", stage, j, b.Weights[j], a.Weights[j])
			}
		}
	}
	sameModel("train", dm, sm)
	dp, err := Prune(dense, y, w, dm, TrainOptions{}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Prune(sparse, y, w, sm, TrainOptions{}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Kept) == d {
		t.Fatal("prune kept every feature; the refit path is not exercised")
	}
	if !reflect.DeepEqual(dp.Kept, sp.Kept) || !reflect.DeepEqual(dp.Dropped, sp.Dropped) {
		t.Fatalf("prune kept %v dropped %v, want %v dropped %v", sp.Kept, sp.Dropped, dp.Kept, dp.Dropped)
	}
	sameModel("prune", dp.Model, sp.Model)
}
