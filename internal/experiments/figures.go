package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"psigene/internal/cluster"
	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/ml"
	"psigene/internal/normalize"
	"psigene/internal/perdisci"
	"psigene/internal/report"
)

// Figure2 reproduces the heat map with two dendrograms: the training
// matrix, standardized and reordered by the two-way clustering, with the
// selected biclusters (and black holes) annotated. It returns the ASCII and
// SVG renderings plus the clustering result for inspection.
func Figure2(env *Env, maxSamples int) (ascii, svg string, res *cluster.Result, err error) {
	if maxSamples <= 0 {
		maxSamples = 600
	}
	norm := make([]string, 0, len(env.TrainAttackReqs))
	for _, r := range env.TrainAttackReqs {
		norm = append(norm, normalize.Normalize(r.Payload()))
	}
	uniq, weights := feature.Dedupe(norm)
	if len(uniq) > maxSamples {
		stride := len(uniq) / maxSamples
		var su []string
		var sw []float64
		for i := 0; i < len(uniq) && len(su) < maxSamples; i += stride {
			su = append(su, uniq[i])
			sw = append(sw, weights[i])
		}
		uniq, weights = su, sw
	}
	cat := feature.Catalog()
	ex, err := feature.NewExtractor(cat)
	if err != nil {
		return "", "", nil, err
	}
	full, err := ex.SparseMatrix(uniq)
	if err != nil {
		return "", "", nil, err
	}
	observed, _, _, err := feature.PruneUnobserved(full, cat)
	if err != nil {
		return "", "", nil, err
	}
	res, err = cluster.Run(observed, weights, cluster.Options{})
	if err != nil {
		return "", "", nil, err
	}
	hm, err := report.NewHeatmap(observed, res)
	if err != nil {
		return "", "", nil, err
	}
	return hm.ASCII(60, 100), hm.SVG(200, 159, 4), res, nil
}

// SignatureROC is one signature's ROC curve (Figure 3).
type SignatureROC struct {
	SignatureID int
	Points      []ml.ROCPoint
	AUC         float64
}

// Figure3 reproduces the per-signature ROC curves: for each signature, its
// probability output is swept over the full test data (attacks + benign).
func Figure3(env *Env) ([]SignatureROC, error) {
	attacks := env.AttackTestSet()
	reqs := make([]httpx.Request, 0, len(attacks)+len(env.BenignTest))
	reqs = append(reqs, attacks...)
	reqs = append(reqs, env.BenignTest...)

	labels := make([]bool, len(reqs))
	probs := make([][]float64, len(reqs))
	for i, r := range reqs {
		labels[i] = r.Malicious
		probs[i] = env.Model9.Probabilities(r)
	}

	var out []SignatureROC
	for si, s := range env.Model9.Signatures {
		scores := make([]float64, len(reqs))
		for i := range reqs {
			scores[i] = probs[i][si]
		}
		pts, err := ml.ROC(scores, labels)
		if err != nil {
			return nil, fmt.Errorf("signature %d ROC: %w", s.ID, err)
		}
		out = append(out, SignatureROC{SignatureID: s.ID, Points: pts, AUC: ml.AUC(pts)})
	}
	return out, nil
}

// CumulativeTPR is one bar of Figure 4.
type CumulativeTPR struct {
	SignatureID  int
	Individual   float64 // this signature's sole contribution to TPR
	Cumulative   float64 // TPR of the union of signatures so far
	Contribution float64 // increase over the previous cumulative value
}

// Figure4 reproduces the cumulative TPR plot: signatures sorted by
// individual detection rate, with each one's marginal contribution.
func Figure4(env *Env) []CumulativeTPR {
	attacks := env.AttackTestSet()
	probs := make([][]float64, len(attacks))
	for i, r := range attacks {
		probs[i] = env.Model9.Probabilities(r)
	}

	type sigHits struct {
		id   int
		hits []bool
		tpr  float64
	}
	var sigs []sigHits
	thresholds := env.Model9.Thresholds()
	for si, s := range env.Model9.Signatures {
		h := sigHits{id: s.ID, hits: make([]bool, len(attacks))}
		var n int
		for i := range attacks {
			if probs[i][si] >= thresholds[si] {
				h.hits[i] = true
				n++
			}
		}
		h.tpr = float64(n) / float64(len(attacks))
		sigs = append(sigs, h)
	}
	sort.SliceStable(sigs, func(i, j int) bool { return sigs[i].tpr > sigs[j].tpr })

	covered := make([]bool, len(attacks))
	var out []CumulativeTPR
	prev := 0.0
	for _, s := range sigs {
		for i, h := range s.hits {
			if h {
				covered[i] = true
			}
		}
		var n int
		for _, c := range covered {
			if c {
				n++
			}
		}
		cum := float64(n) / float64(len(attacks))
		out = append(out, CumulativeTPR{
			SignatureID:  s.id,
			Individual:   s.tpr,
			Cumulative:   cum,
			Contribution: cum - prev,
		})
		prev = cum
	}
	return out
}

// IncrementalResult is one row of Experiment 2.
type IncrementalResult struct {
	Label    string
	TPR, FPR float64
}

// Experiment2 reproduces incremental learning: the 9-signature model is
// evaluated, then updated with the first 20% of the SQLmap test set and
// then the next 20% (in generator order), re-evaluating after each step.
// TPR should rise monotonically (within noise) and FPR may creep up
// slightly, as in the paper. Each update builds a new model, so env is
// left as it was and the experiment repeats exactly.
func Experiment2(env *Env) ([]IncrementalResult, error) {
	tr := env.Trainer
	model := tr.Model()
	out := []IncrementalResult{{
		Label: "baseline",
		TPR:   ids.Evaluate(model, env.SQLMap).TPR(),
		FPR:   ids.Evaluate(model, env.BenignTest).FPR(),
	}}

	n := len(env.SQLMap)
	steps := []struct {
		label    string
		from, to int
	}{
		{"+20% of SQLmap set", 0, n / 5},
		{"+40% of SQLmap set", n / 5, 2 * n / 5},
	}
	for _, st := range steps {
		var err error
		if tr, err = tr.Update(env.SQLMap[st.from:st.to]); err != nil {
			return nil, fmt.Errorf("update %s: %w", st.label, err)
		}
		model = tr.Model()
		out = append(out, IncrementalResult{
			Label: st.label,
			TPR:   ids.Evaluate(model, env.SQLMap).TPR(),
			FPR:   ids.Evaluate(model, env.BenignTest).FPR(),
		})
	}
	return out, nil
}

// PerdisciResult is Experiment 3's outcome.
type PerdisciResult struct {
	FineGrainedClusters int
	AfterFiltering      int
	FinalSignatures     int
	TPRUnseen           float64 // on the SQLmap set (paper: 5.79%)
	TPRTrain            float64 // on the training set itself (paper: 76.5%)
	FPR                 float64 // on the benign trace (paper: 0%)
}

// Experiment3 reproduces the comparison to Perdisci's approach.
func Experiment3(env *Env) (*PerdisciResult, error) {
	res, err := perdisci.Train(env.TrainAttackReqs, perdisci.Options{})
	if err != nil {
		return nil, err
	}
	return &PerdisciResult{
		FineGrainedClusters: res.FineGrained,
		AfterFiltering:      res.AfterFiltering,
		FinalSignatures:     res.FinalSignatures,
		TPRUnseen:           ids.Evaluate(res.System, env.SQLMap).TPR(),
		TPRTrain:            ids.Evaluate(res.System, env.TrainAttackReqs).TPR(),
		FPR:                 ids.Evaluate(res.System, env.BenignTest).FPR(),
	}, nil
}

// TimingResult is one system's Experiment 4 row.
type TimingResult struct {
	System        string
	Min, Avg, Max time.Duration
}

// Experiment4 reproduces the performance evaluation: per-request processing
// time over the SQLmap set for pSigene, ModSec and Bro, from which the
// paper derives its 17X / 11X slowdown figures.
func Experiment4(env *Env, maxRequests int) []TimingResult {
	reqs := env.SQLMap
	if maxRequests > 0 && len(reqs) > maxRequests {
		reqs = reqs[:maxRequests]
	}
	// The pSigene row times the paper-faithful count_all engine; the
	// shared-pass Model engine is the optimization the paper defers.
	countAll, err := core.NewCountAllDetector(env.Model9)
	if err != nil {
		countAll = nil
	}
	systems := []ids.Detector{env.ModSec, env.Bro}
	if countAll != nil {
		systems = append([]ids.Detector{countAll}, systems...)
	}
	out := make([]TimingResult, 0, len(systems))
	for _, d := range systems {
		tr := TimingResult{System: displayName(d)}
		var total time.Duration
		for i, r := range reqs {
			start := time.Now()
			d.Inspect(r)
			el := time.Since(start)
			total += el
			if i == 0 || el < tr.Min {
				tr.Min = el
			}
			if el > tr.Max {
				tr.Max = el
			}
		}
		if len(reqs) > 0 {
			tr.Avg = total / time.Duration(len(reqs))
		}
		out = append(out, tr)
	}
	return out
}

// Slowdown computes avg-time ratios of pSigene vs the other systems in an
// Experiment4 result (paper: 17X vs ModSec, 11X vs Bro).
func Slowdown(rows []TimingResult) map[string]float64 {
	var ps float64
	for _, r := range rows {
		if strings.HasPrefix(r.System, "pSigene") {
			ps = float64(r.Avg)
		}
	}
	out := make(map[string]float64)
	for _, r := range rows {
		if !strings.HasPrefix(r.System, "pSigene") && r.Avg > 0 {
			out[r.System] = ps / float64(r.Avg)
		}
	}
	return out
}

// ablation helpers -----------------------------------------------------------

// AblationRow compares a pipeline variant against the default.
type AblationRow struct {
	Variant  string
	TPR, FPR float64
}

// AblationBinaryFeatures reruns training with binary (presence) features —
// the design choice §II-B reports as inferior to counts.
func AblationBinaryFeatures(env *Env) (*AblationRow, error) {
	m, err := core.Train(env.TrainAttackReqs, env.TrainBenignReqs, core.Config{BinaryFeatures: true})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Variant: "binary features",
		TPR:     ids.Evaluate(m, env.SQLMap).TPR(),
		FPR:     ids.Evaluate(m, env.BenignTest).FPR(),
	}, nil
}

// AblationGlobalLR trains a single logistic regression over all features
// with no biclustering — isolating the contribution of phase 3.
func AblationGlobalLR(env *Env) (*AblationRow, error) {
	// A single "bicluster" containing every sample and every feature.
	m, err := core.Train(env.TrainAttackReqs, env.TrainBenignReqs, core.Config{
		Cluster: cluster.Options{MinClusterFrac: 0.999, FeatureSupport: 1e-9, BlackHoleZeroFrac: 1.1},
	})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Variant: "single global LR (no biclustering)",
		TPR:     ids.Evaluate(m, env.SQLMap).TPR(),
		FPR:     ids.Evaluate(m, env.BenignTest).FPR(),
	}, nil
}

// AblationLinkage retrains the pipeline with single and complete linkage in
// place of the paper's UPGMA, quantifying the clustering design choice.
func AblationLinkage(env *Env) ([]AblationRow, error) {
	var out []AblationRow
	for _, l := range []cluster.Linkage{cluster.LinkageAverage, cluster.LinkageSingle, cluster.LinkageComplete} {
		m, err := core.Train(env.TrainAttackReqs, env.TrainBenignReqs, core.Config{
			Cluster: cluster.Options{Linkage: l},
		})
		if err != nil {
			return nil, fmt.Errorf("linkage %v: %w", l, err)
		}
		out = append(out, AblationRow{
			Variant: "linkage " + l.String() + fmt.Sprintf(" (%d signatures)", len(m.Signatures)),
			TPR:     ids.Evaluate(m, env.SQLMap).TPR(),
			FPR:     ids.Evaluate(m, env.BenignTest).FPR(),
		})
	}
	return out, nil
}

// ThresholdSweep evaluates Model9 with every signature at each threshold
// in turn (the knob behind Figure 3's per-signature curves).
func ThresholdSweep(env *Env, thresholds []float64) ([]AblationRow, error) {
	var out []AblationRow
	for _, t := range thresholds {
		ts := make([]float64, len(env.Model9.Signatures))
		for i := range ts {
			ts[i] = t
		}
		m, err := env.Model9.WithThresholds(ts)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Variant: fmt.Sprintf("threshold=%.2f", t),
			TPR:     ids.Evaluate(m, env.SQLMap).TPR(),
			FPR:     ids.Evaluate(m, env.BenignTest).FPR(),
		})
	}
	return out, nil
}
