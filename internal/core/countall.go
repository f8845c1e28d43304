package core

import (
	"fmt"
	"regexp"

	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/ml"
	"psigene/internal/normalize"
)

// CountAllDetector is the paper-faithful runtime: the Bro implementation
// (§III-C) exposes a count_all(regex, string) function and each signature
// independently counts every one of its feature regexes against the request
// payload. Shared work across signatures is *not* amortized — the paper
// attributes pSigene's 11–17X slowdown over Bro/ModSec to exactly these
// per-signature count_all invocations, and Experiment 4 measures this
// engine. Model.Inspect remains the optimized single-pass engine (the
// "obvious performance optimization" the paper leaves as future work).
type CountAllDetector struct {
	model *Model
	sigs  []countAllSignature
}

type countAllSignature struct {
	id        int
	threshold float64
	bias      float64
	weights   []float64
	regexes   []*regexp.Regexp
}

var _ ids.Detector = (*CountAllDetector)(nil)

// NewCountAllDetector compiles one regex per (signature, feature) pair.
// Reserved-word features become \bword\b regexes, exactly as the Bro
// implementation treats every feature as a regular expression.
func NewCountAllDetector(m *Model) (*CountAllDetector, error) {
	d := &CountAllDetector{model: m}
	for i, s := range m.Signatures {
		cs := countAllSignature{
			id:        s.ID,
			threshold: m.thresholds[i],
			bias:      s.Model.Bias,
			weights:   append([]float64(nil), s.Model.Weights...),
		}
		for _, j := range s.Features {
			f := m.Features.Features[j]
			pat := f.Pattern
			if f.Word != "" {
				pat = `\b` + regexp.QuoteMeta(f.Word) + `\b`
			}
			re, err := regexp.Compile("(?i)" + pat)
			if err != nil {
				return nil, fmt.Errorf("signature %d feature %q: %w", s.ID, f.Name, err)
			}
			cs.regexes = append(cs.regexes, re)
		}
		d.sigs = append(d.sigs, cs)
	}
	return d, nil
}

// Name implements ids.Detector.
func (d *CountAllDetector) Name() string {
	return fmt.Sprintf("pSigene/count_all(%d signatures)", len(d.sigs))
}

// countAll returns the number of non-overlapping matches of re in s — the
// count_all() function of the paper's Bro implementation. Bro's pattern
// type has no match-count primitive, so the policy-layer implementation
// finds one match at a time and re-scans the remainder; this function keeps
// those find-and-advance semantics.
func countAll(re *regexp.Regexp, s string) float64 {
	var n float64
	for len(s) > 0 {
		loc := re.FindStringIndex(s)
		if loc == nil {
			return n
		}
		n++
		adv := loc[1]
		if adv == loc[0] { // empty match: advance one byte
			adv++
		}
		if adv >= len(s) {
			return n
		}
		s = s[adv:]
	}
	return n
}

// Inspect implements ids.Detector with per-signature feature counting.
// Each signature handler normalizes and scans the full request string
// independently, as the separate Bro policy handlers do.
func (d *CountAllDetector) Inspect(req httpx.Request) ids.Verdict {
	var v ids.Verdict
	for i := range d.sigs {
		payload := normalize.Normalize(req.URL())
		s := &d.sigs[i]
		z := s.bias
		for k, re := range s.regexes {
			z += s.weights[k] * countAll(re, payload)
		}
		if ml.Sigmoid(z) >= s.threshold {
			v.Alert = true
			v.Score++
			v.Matched = append(v.Matched, fmt.Sprintf("psigene:%d", s.id))
		}
	}
	return v
}
