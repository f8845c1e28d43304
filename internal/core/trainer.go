package core

import (
	"fmt"

	"psigene/internal/cluster"
	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/matrix"
	"psigene/internal/normalize"
)

// Trainer owns the training state behind a Model: the observed attack
// matrix and its sample weights, the benign matrix, and the attack samples
// added since. Incremental learning (the paper's Experiment 2) re-learns
// from it, and builds a new Model rather than changing a built one.
type Trainer struct {
	model     *Model
	cfg       Config
	observed  matrix.RowMatrix
	weights   []float64
	benignMat matrix.RowMatrix
	benignW   []float64
	extra     map[int][]extraSample // bicluster ID -> appended samples
}

// Model returns the trained signature set.
func (t *Trainer) Model() *Model { return t.model }

// Update implements the paper's incremental-learning use case
// (Experiment 2): fresh attack samples are fed in and the Θ parameters of
// the affected signatures are re-learned automatically. The biclusters
// themselves are kept fixed — each new sample is assigned to the bicluster
// whose signature gives it the highest probability — so only the logistic
// regressions retrain, which is what makes the update cheap enough to run
// periodically: the continuous lifecycle (internal/lifecycle) calls it
// every round. Touched signatures retrain shard-parallel under
// Config.Parallelism with bit-identical results at every worker count.
//
// Update returns a new Trainer and leaves t and t.Model() untouched: the
// new Model keeps t.Model()'s thresholds, shares its unchanged *Signatures
// and holds fresh retrained ones. An empty batch returns t itself.
func (t *Trainer) Update(fresh []httpx.Request) (*Trainer, error) {
	if len(fresh) == 0 {
		return t, nil
	}
	m := t.model

	// Deduplicate incoming samples against each other.
	norm := make([]string, len(fresh))
	for i, r := range fresh {
		norm[i] = normalize.Normalize(r.Payload())
	}
	uniq, counts := feature.Dedupe(norm)

	// Clip every inherited slice to its length, so an append below
	// copies instead of writing into an array t still reads.
	extra := make(map[int][]extraSample, len(t.extra))
	for id, e := range t.extra {
		extra[id] = e[:len(e):len(e)]
	}
	touched := make(map[int]bool)
	for k, s := range uniq {
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
		extra[best] = append(extra[best], extraSample{cols: cols, vals: vals, w: counts[k]})
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
			return nil, fmt.Errorf("core: bicluster %d missing from clustering result", sig.ID)
		}
		idx = append(idx, i)
		bics = append(bics, b)
	}
	retrained, err := trainSignatures(t.observed, t.weights, t.benignMat, t.benignW, bics, extra, t.cfg)
	if err != nil {
		return nil, fmt.Errorf("retrain: %w", err)
	}
	next := *m
	next.Signatures = append([]*Signature(nil), m.Signatures...)
	for k, i := range idx {
		next.Signatures[i] = retrained[k]
	}
	next.Stats.AttackSamples += len(fresh)

	nt := *t
	nt.model, nt.extra = &next, extra
	return &nt, nil
}

func (m *Model) biclusterByID(id int) (b cluster.Bicluster, ok bool) {
	for _, c := range m.Biclustering.Biclusters {
		if c.ID == id {
			return c, true
		}
	}
	return b, false
}
