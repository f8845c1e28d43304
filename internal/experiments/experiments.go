// Package experiments regenerates every table and figure in the paper's
// evaluation section. Each experiment is a function over a shared Env
// (datasets plus trained systems) returning a report artifact; the
// cmd/evalharness binary drives these functions, so the paper-vs-measured
// numbers in EXPERIMENTS.md come from exactly this code.
package experiments

import (
	"fmt"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/ruleset"
	"psigene/internal/traffic"
)

// Scale sets dataset sizes. The paper's full scale (30,000 crawled samples,
// 240,000 benign training requests, 7,200 SQLmap and 8,578 Arachni+Vega
// test samples, a 1.4M-request benign trace) is reachable with PaperScale;
// DefaultScale keeps CI runs fast while preserving every shape.
type Scale struct {
	TrainAttacks int
	TrainBenign  int
	SQLMapTests  int
	ArachniTests int // Arachni and Vega are reported together, as in §III-B
	VegaTests    int
	BenignTests  int
	Seed         int64
}

// DefaultScale is the CI-friendly configuration.
func DefaultScale() Scale {
	return Scale{
		TrainAttacks: 3000,
		TrainBenign:  10000,
		SQLMapTests:  1200,
		ArachniTests: 600,
		VegaTests:    600,
		BenignTests:  20000,
		Seed:         1,
	}
}

// PaperScale matches the paper's corpus sizes (the benign trace is capped
// at 200k requests; raise it if you have the patience of a reviewer).
func PaperScale() Scale {
	return Scale{
		TrainAttacks: 30000,
		TrainBenign:  60000,
		SQLMapTests:  7200,
		ArachniTests: 4289,
		VegaTests:    4289,
		BenignTests:  200000,
		Seed:         1,
	}
}

// Env bundles the datasets and trained systems shared by the experiments.
type Env struct {
	Scale Scale

	TrainAttackReqs []httpx.Request
	TrainBenignReqs []httpx.Request
	SQLMap          []httpx.Request
	Arachni         []httpx.Request // Arachni + Vega merged
	BenignTest      []httpx.Request

	// Model9 is the full signature set ("9 signatures"); Model7 drops the
	// last two heat-map-ordered signatures ("7 signatures").
	Model9, Model7 *core.Model

	Bro     *ids.RuleEngine
	SnortET *ids.RuleEngine
	ModSec  *ids.RuleEngine
}

// Setup generates the datasets and trains every system.
func Setup(s Scale) (*Env, error) {
	env := &Env{Scale: s}

	env.TrainAttackReqs = attackgen.NewGenerator(attackgen.CrawlProfile(), s.Seed).Requests(s.TrainAttacks)
	env.TrainBenignReqs = traffic.NewGenerator(s.Seed + 1).Requests(s.TrainBenign)
	env.SQLMap = attackgen.NewGenerator(attackgen.SQLMapProfile(), s.Seed+2).Requests(s.SQLMapTests)
	env.Arachni = append(
		attackgen.NewGenerator(attackgen.ArachniProfile(), s.Seed+3).Requests(s.ArachniTests),
		attackgen.NewGenerator(attackgen.VegaProfile(), s.Seed+4).Requests(s.VegaTests)...)
	env.BenignTest = traffic.NewGenerator(s.Seed + 5).Requests(s.BenignTests)

	model, err := core.Train(env.TrainAttackReqs, env.TrainBenignReqs, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("train pSigene: %w", err)
	}
	env.Model9 = model

	if n := len(model.Signatures); n > 2 {
		keep := make([]int, 0, n-2)
		for _, sig := range model.Signatures[:n-2] {
			keep = append(keep, sig.ID)
		}
		m7, err := model.WithSignatures(keep)
		if err != nil {
			return nil, fmt.Errorf("subset model: %w", err)
		}
		env.Model7 = m7
	} else {
		env.Model7 = model
	}

	if env.Bro, err = ids.NewRuleEngine(ruleset.Bro(), ids.Options{}); err != nil {
		return nil, fmt.Errorf("bro engine: %w", err)
	}
	// The paper merges the Snort and ET distributions for its Table V row;
	// ET ships fully disabled, so the merged engine loads disabled rules.
	if env.SnortET, err = ids.NewRuleEngine(ruleset.SnortET(), ids.Options{IncludeDisabled: true}); err != nil {
		return nil, fmt.Errorf("snort-et engine: %w", err)
	}
	if env.ModSec, err = ids.NewRuleEngine(ruleset.ModSecCRS(), ids.Options{}); err != nil {
		return nil, fmt.Errorf("modsec engine: %w", err)
	}
	return env, nil
}

// AttackTestSet returns the combined SQLmap + Arachni test attacks.
func (e *Env) AttackTestSet() []httpx.Request {
	out := make([]httpx.Request, 0, len(e.SQLMap)+len(e.Arachni))
	out = append(out, e.SQLMap...)
	out = append(out, e.Arachni...)
	return out
}

// Detectors returns the Table V systems in presentation order.
func (e *Env) Detectors() []ids.Detector {
	return []ids.Detector{e.ModSec, e.Model9, e.Model7, e.SnortET, e.Bro}
}
