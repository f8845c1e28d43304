package ml

import (
	"fmt"
	"sort"
)

// Confusion holds binary-classification outcome counts.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates one prediction: detected says whether the detector fired,
// malicious whether the sample was actually an attack.
func (c *Confusion) Add(detected, malicious bool) {
	switch {
	case detected && malicious:
		c.TP++
	case detected && !malicious:
		c.FP++
	case !detected && malicious:
		c.FN++
	default:
		c.TN++
	}
}

// TPR is the true-positive rate (detection rate): TP / (TP+FN).
func (c Confusion) TPR() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR is the false-positive rate: FP / (FP+TN).
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// String renders the counts and headline rates.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d TPR=%.4f FPR=%.6f", c.TP, c.FP, c.TN, c.FN, c.TPR(), c.FPR())
}

// ROCPoint is one operating point of a detector as its decision threshold
// varies.
type ROCPoint struct {
	Threshold float64
	TPR, FPR  float64
}

// ROC computes the ROC curve for continuous scores (higher = more likely
// attack) against ground-truth labels. The returned points are ordered by
// increasing FPR and include the (0,0) and (1,1) endpoints.
func ROC(scores []float64, labels []bool) ([]ROCPoint, error) {
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("ml: %d scores for %d labels", len(scores), len(labels))
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("ml: empty ROC input")
	}
	var pos, neg int
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("ml: ROC needs both classes (pos=%d neg=%d)", pos, neg)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	points := []ROCPoint{{Threshold: 1.0001, TPR: 0, FPR: 0}}
	tp, fp := 0, 0
	for k := 0; k < len(idx); {
		// Process ties together so the curve is threshold-consistent.
		s := scores[idx[k]]
		for k < len(idx) && scores[idx[k]] == s {
			if labels[idx[k]] {
				tp++
			} else {
				fp++
			}
			k++
		}
		points = append(points, ROCPoint{
			Threshold: s,
			TPR:       float64(tp) / float64(pos),
			FPR:       float64(fp) / float64(neg),
		})
	}
	return points, nil
}

// AUC integrates a ROC curve with the trapezoid rule.
func AUC(points []ROCPoint) float64 {
	var area float64
	for i := 1; i < len(points); i++ {
		dx := points[i].FPR - points[i-1].FPR
		area += dx * (points[i].TPR + points[i-1].TPR) / 2
	}
	return area
}
