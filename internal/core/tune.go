package core

import (
	"errors"
	"fmt"
	"sort"

	"psigene/internal/httpx"
)

// TuneThresholds automates what the paper describes an administrator doing
// with Figure 3's ROC curves ("with an idea of a desired TPR and FPR, a
// security administrator can visually, and approximately, decide which
// signatures to enable or disable"): for every signature it scores a
// labeled validation set, then picks the lowest threshold whose per-
// signature false-positive rate stays within the budget — maximizing each
// signature's recall subject to the FPR constraint. Signatures that cannot
// meet the budget at any threshold are effectively disabled (threshold
// above every benign score and every attack score they produce).
//
// The chosen thresholds are returned in signature order; the model is left
// as it was, and m.WithThresholds builds the tuned model.
func (m *Model) TuneThresholds(validation []httpx.Request, targetFPR float64) ([]float64, error) {
	if targetFPR < 0 || targetFPR >= 1 {
		return nil, fmt.Errorf("core: target FPR %v out of range [0, 1)", targetFPR)
	}
	var nBenign, nAttack int
	for _, r := range validation {
		if r.Malicious {
			nAttack++
		} else {
			nBenign++
		}
	}
	if nBenign == 0 || nAttack == 0 {
		return nil, errors.New("core: validation set needs both attack and benign requests")
	}

	benignProbs := make([][]float64, 0, nBenign)
	for _, r := range validation {
		if !r.Malicious {
			benignProbs = append(benignProbs, m.Probabilities(r))
		}
	}

	maxFP := int(targetFPR * float64(nBenign))
	out := make([]float64, len(m.Signatures))
	for si := range m.Signatures {
		benignScores := make([]float64, len(benignProbs))
		for i, probs := range benignProbs {
			benignScores[i] = probs[si]
		}
		sort.Float64s(benignScores)
		// The threshold must exceed all but the top maxFP benign scores.
		// Index of the first benign score allowed to alert:
		cut := len(benignScores) - maxFP
		var threshold float64
		switch {
		case cut <= 0:
			threshold = 0 // budget admits every benign request (degenerate)
		case cut >= len(benignScores):
			threshold = nextAbove(benignScores[len(benignScores)-1])
		default:
			threshold = nextAbove(benignScores[cut-1])
		}
		if threshold > 1 {
			threshold = 1.0000001 // unreachable: signature disabled
		}
		out[si] = threshold
	}
	return out, nil
}

// nextAbove returns a value strictly greater than x by a hair, so a
// threshold of nextAbove(worst allowed benign score) excludes that score.
func nextAbove(x float64) float64 {
	return x + 1e-9
}
