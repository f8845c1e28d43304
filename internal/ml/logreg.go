// Package ml implements the machine-learning substrate of pSigene's fourth
// phase: binary logistic regression trained with the Preconditioned
// Conjugate Gradients method (PCG, Eisenstat 1981) inside a truncated-Newton
// loop, coefficient-based feature pruning, and the evaluation metrics
// (confusion counts, TPR/FPR, ROC curves) used throughout the paper's
// evaluation section.
package ml

import (
	"errors"
	"fmt"
	"math"

	"psigene/internal/matrix"
)

// Sigmoid is the logistic function g(z) = 1/(1+e^-z) used as the hypothesis
// of every generalized signature.
func Sigmoid(z float64) float64 {
	// Split on sign for numerical stability at large |z|.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// LogisticModel is a trained binary logistic-regression classifier:
// P(attack | x) = g(Bias + Weights·x).
type LogisticModel struct {
	Bias    float64
	Weights []float64
}

// Predict returns P(class=1 | x).
func (m *LogisticModel) Predict(x []float64) float64 {
	if len(x) != len(m.Weights) {
		panic(fmt.Sprintf("ml: predict with %d features, model has %d", len(x), len(m.Weights)))
	}
	return Sigmoid(m.Bias + matrix.Dot(m.Weights, x))
}

// Theta returns the full parameter vector [Bias, Weights...] in the paper's
// Θ notation.
func (m *LogisticModel) Theta() []float64 {
	out := make([]float64, 0, len(m.Weights)+1)
	out = append(out, m.Bias)
	out = append(out, m.Weights...)
	return out
}

// TrainOptions configures logistic-regression training.
type TrainOptions struct {
	// L2 is the ridge penalty on the non-bias weights. Defaults to 1e-4.
	L2 float64
	// MaxNewtonIter bounds the outer Newton iterations. Defaults to 50.
	MaxNewtonIter int
	// MaxCGIter bounds the inner PCG iterations per Newton step. Defaults
	// to 200.
	MaxCGIter int
	// GradTol is the gradient-norm convergence threshold. Defaults to 1e-6.
	GradTol float64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.L2 <= 0 {
		o.L2 = 1e-4
	}
	if o.MaxNewtonIter <= 0 {
		o.MaxNewtonIter = 50
	}
	if o.MaxCGIter <= 0 {
		o.MaxCGIter = 200
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	return o
}

// ErrNoData is returned when training is attempted with no samples.
var ErrNoData = errors.New("ml: no training samples")

// ErrOneClass is returned when all training labels are identical.
var ErrOneClass = errors.New("ml: training labels contain a single class")

// TrainLogistic fits a logistic-regression model on the rows of x (dense
// or CSR) with binary labels y (0 or 1) and optional per-sample weights w
// (nil for all ones). Sample weights let a deduplicated corpus train
// identically to the expanded one.
//
// The optimizer is truncated Newton: each outer step solves the Newton
// system H·s = -∇L with Jacobi-preconditioned conjugate gradients and then
// backtracking line search on the L2-regularized negative log-likelihood.
// All inner products against the data — margins, gradient scatter,
// Hessian-vector products — go through the RowMatrix nonzero structure, so
// a sparse training matrix costs O(nnz) per pass instead of O(rows×cols).
func TrainLogistic(x matrix.RowMatrix, y, w []float64, opts TrainOptions) (*LogisticModel, error) {
	opts = opts.withDefaults()
	n, d := x.Rows(), x.Cols()
	if n == 0 || d == 0 {
		return nil, ErrNoData
	}
	if len(y) != n {
		return nil, fmt.Errorf("ml: %d labels for %d samples", len(y), n)
	}
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1
		}
	}
	if len(w) != n {
		return nil, fmt.Errorf("ml: %d sample weights for %d samples", len(w), n)
	}
	var pos, neg bool
	for i, v := range y {
		switch v {
		case 0:
			neg = true
		case 1:
			pos = true
		default:
			return nil, fmt.Errorf("ml: label y[%d]=%v is not 0 or 1", i, v)
		}
	}
	if !pos || !neg {
		return nil, ErrOneClass
	}

	// theta[0] is the bias; theta[1:] the feature weights.
	theta := make([]float64, d+1)
	grad := make([]float64, d+1)
	dir := make([]float64, d+1)
	p := make([]float64, n)      // predicted probabilities
	diag := make([]float64, d+1) // Jacobi preconditioner / Hessian diagonal

	margin := func(th []float64, i int) float64 {
		return th[0] + x.RowDot(i, th[1:])
	}
	loss := func(th []float64) float64 {
		var l float64
		for i := 0; i < n; i++ {
			z := margin(th, i)
			// -log likelihood via the numerically stable log1p form:
			// log(1+e^z) - y*z.
			var lse float64
			if z > 0 {
				lse = z + math.Log1p(math.Exp(-z))
			} else {
				lse = math.Log1p(math.Exp(z))
			}
			l += w[i] * (lse - y[i]*z)
		}
		for j := 1; j <= d; j++ {
			l += 0.5 * opts.L2 * th[j] * th[j]
		}
		return l
	}

	for iter := 0; iter < opts.MaxNewtonIter; iter++ {
		// Gradient and Hessian diagonal at theta.
		for j := range grad {
			grad[j] = 0
			diag[j] = 0
		}
		for i := 0; i < n; i++ {
			p[i] = Sigmoid(margin(theta, i))
			r := w[i] * (p[i] - y[i])
			s := w[i] * p[i] * (1 - p[i])
			grad[0] += r
			diag[0] += s
			cols, vals := x.RowNonZeros(i)
			for k, j := range cols {
				v := vals[k]
				grad[j+1] += r * v
				diag[j+1] += s * v * v
			}
		}
		for j := 1; j <= d; j++ {
			grad[j] += opts.L2 * theta[j]
			diag[j] += opts.L2
		}
		if matrix.Norm2(grad) <= opts.GradTol {
			break
		}

		hessVec := func(v, out []float64) {
			// out = H v where H = Xᵀ S X + λI (bias unregularized), with the
			// bias folded in as a constant column.
			for j := range out {
				out[j] = 0
			}
			for i := 0; i < n; i++ {
				xv := v[0] + x.RowDot(i, v[1:])
				s := w[i] * p[i] * (1 - p[i]) * xv
				out[0] += s
				cols, vals := x.RowNonZeros(i)
				for k, j := range cols {
					out[j+1] += s * vals[k]
				}
			}
			for j := 1; j <= d; j++ {
				out[j] += opts.L2 * v[j]
			}
		}
		neg := make([]float64, d+1)
		for j := range neg {
			neg[j] = -grad[j]
		}
		pcg(hessVec, diag, neg, dir, opts.MaxCGIter, 1e-10)

		// Backtracking line search on the full Newton direction.
		base := loss(theta)
		gd := matrix.Dot(grad, dir)
		step := 1.0
		trial := make([]float64, d+1)
		improved := false
		for ls := 0; ls < 30; ls++ {
			copy(trial, theta)
			matrix.AXPY(step, dir, trial)
			if loss(trial) <= base+1e-4*step*gd {
				copy(theta, trial)
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			break // no descent possible; converged to numerical precision
		}
	}

	return &LogisticModel{Bias: theta[0], Weights: append([]float64(nil), theta[1:]...)}, nil
}

// pcg solves A·x = b with Jacobi (diagonal) preconditioning, writing the
// solution into x. applyA computes out = A·v.
func pcg(applyA func(v, out []float64), diag, b, x []float64, maxIter int, tol float64) {
	n := len(b)
	for i := range x {
		x[i] = 0
	}
	r := append([]float64(nil), b...) // r = b - A·0
	z := make([]float64, n)
	precond := func(r, z []float64) {
		for i := range r {
			if diag[i] > 0 {
				z[i] = r[i] / diag[i]
			} else {
				z[i] = r[i]
			}
		}
	}
	precond(r, z)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := matrix.Dot(r, z)
	bn := matrix.Norm2(b)
	if bn == 0 {
		return
	}
	for k := 0; k < maxIter; k++ {
		if matrix.Norm2(r) <= tol*bn {
			return
		}
		applyA(p, ap)
		pap := matrix.Dot(p, ap)
		if pap <= 0 {
			return // direction of non-positive curvature; stop with current x
		}
		alpha := rz / pap
		matrix.AXPY(alpha, p, x)
		matrix.AXPY(-alpha, ap, r)
		precond(r, z)
		rzNew := matrix.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
}

// PruneResult reports the outcome of coefficient-based feature pruning.
type PruneResult struct {
	// Model is the refitted model over the kept features only.
	Model *LogisticModel
	// Kept lists the indices (into the original feature set) that survived.
	Kept []int
	// Dropped lists the pruned feature indices.
	Dropped []int
}

// Prune drops features whose standardized coefficient magnitude
// |w_j|·std_j falls below threshold·max_k(|w_k|·std_k), then refits on the
// kept columns. This reproduces the paper's observation that logistic
// regression "throws out" most biclustering features (Table VI). A
// threshold of 0 keeps everything; typical values are 0.01–0.1.
func Prune(x matrix.RowMatrix, y, w []float64, model *LogisticModel, opts TrainOptions, threshold float64) (*PruneResult, error) {
	if len(model.Weights) != x.Cols() {
		return nil, fmt.Errorf("ml: model has %d weights, matrix %d columns", len(model.Weights), x.Cols())
	}
	st := x.ColumnStats()
	imp := make([]float64, len(model.Weights))
	maxImp := 0.0
	for j, wj := range model.Weights {
		imp[j] = math.Abs(wj) * st.Std[j]
		if imp[j] > maxImp {
			maxImp = imp[j]
		}
	}
	var kept, dropped []int
	for j := range imp {
		if maxImp > 0 && imp[j] >= threshold*maxImp {
			kept = append(kept, j)
		} else {
			dropped = append(dropped, j)
		}
	}
	if len(kept) == 0 {
		// Never prune everything: keep the single most important feature.
		best := 0
		for j := range imp {
			if imp[j] > imp[best] {
				best = j
			}
		}
		kept = []int{best}
		dropped = dropped[:0]
		for j := range imp {
			if j != best {
				dropped = append(dropped, j)
			}
		}
	}
	sub, err := x.SelectCols(kept)
	if err != nil {
		return nil, err
	}
	refit, err := TrainLogistic(sub, y, w, opts)
	if err != nil {
		return nil, fmt.Errorf("refit after pruning: %w", err)
	}
	return &PruneResult{Model: refit, Kept: kept, Dropped: dropped}, nil
}
