package core

import (
	"errors"
	"fmt"

	"psigene/internal/cluster"
	"psigene/internal/httpx"
	"psigene/internal/normalize"
)

// Update implements the paper's incremental-learning use case
// (Experiment 2): fresh attack samples are fed into the trained model and
// the Θ parameters of the affected signatures are re-learned automatically.
// The biclusters themselves are kept fixed — each new sample is assigned to
// the bicluster whose signature gives it the highest probability — so only
// the logistic regressions retrain, which is what makes the update cheap
// enough to run periodically: the continuous lifecycle (internal/lifecycle)
// calls it every round. Touched signatures retrain shard-parallel under
// Config.Parallelism with bit-identical results at every worker count.
func (m *Model) Update(newAttacks []httpx.Request) error {
	if m.trainObserved == nil {
		return errors.New("core: model does not retain training state")
	}
	if len(newAttacks) == 0 {
		return nil
	}

	// Deduplicate incoming samples against each other.
	norm := make([]string, len(newAttacks))
	for i, r := range newAttacks {
		norm[i] = normalize.Normalize(r.Payload())
	}
	counts := make(map[string]float64, len(norm))
	order := make([]string, 0, len(norm))
	for _, s := range norm {
		if counts[s] == 0 {
			order = append(order, s)
		}
		counts[s]++
	}

	touched := make(map[int]bool)
	for _, s := range order {
		cols, vals := m.sparseVector(s)
		best, bestP := -1, -1.0
		for _, sig := range m.Signatures {
			if p := sig.ProbabilitySparse(cols, vals); p > bestP {
				best, bestP = sig.ID, p
			}
		}
		if best < 0 {
			continue
		}
		m.extra[best] = append(m.extra[best], extraSample{cols: cols, vals: vals, w: counts[s]})
		touched[best] = true
	}

	// Retrain Θ for every signature that received samples, through the
	// same sharded pool as the initial training pass.
	var idx []int // indices into m.Signatures
	var bics []cluster.Bicluster
	for i, sig := range m.Signatures {
		if !touched[sig.ID] {
			continue
		}
		b, ok := m.biclusterByID(sig.ID)
		if !ok {
			return fmt.Errorf("core: bicluster %d missing from clustering result", sig.ID)
		}
		idx = append(idx, i)
		bics = append(bics, b)
	}
	retrained, err := trainSignatures(m.trainObserved, m.trainWeights, m.benignMat, m.benignW, bics, m.extra, m.cfg)
	if err != nil {
		return fmt.Errorf("retrain: %w", err)
	}
	for k, i := range idx {
		retrained[k].Threshold = m.Signatures[i].Threshold // preserve any ROC tuning
		m.Signatures[i] = retrained[k]
	}
	m.Stats.AttackSamples += len(newAttacks)
	return nil
}

func (m *Model) biclusterByID(id int) (b cluster.Bicluster, ok bool) {
	for _, c := range m.Biclustering.Biclusters {
		if c.ID == id {
			return c, true
		}
	}
	return b, false
}
