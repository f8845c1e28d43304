package feature

import (
	"reflect"
	"testing"

	"psigene/internal/acmatch"
	"psigene/internal/attackgen"
	"psigene/internal/normalize"
)

// The prefilter's one correctness obligation is soundness: whenever a
// gated pattern's regex matches a sample, at least one of its required
// literals must occur in the sample's folded view — otherwise the gate
// would skip an evaluation that changes extraction output. These tests
// check that implication over the production gate itself (the compiled
// automaton and its owner lists, not a re-derivation) on the same
// deterministic probe corpus the analysis package audits with, and fuzz
// it on arbitrary bytes.

// soundnessCorpus mirrors analysis.ProbeCorpus — the four scanner
// profiles at the default seed, normalized like serving traffic. The
// analysis package imports this one, so the corpus is rebuilt here
// rather than imported.
func soundnessCorpus(perProfile int, seed int64) []string {
	profiles := []attackgen.Profile{
		attackgen.CrawlProfile(),
		attackgen.SQLMapProfile(),
		attackgen.ArachniProfile(),
		attackgen.VegaProfile(),
	}
	out := make([]string, 0, perProfile*len(profiles))
	for _, p := range profiles {
		g := attackgen.NewGenerator(p, seed)
		for _, r := range g.Requests(perProfile) {
			out = append(out, normalize.Normalize(r.Payload()))
		}
	}
	return out
}

func TestPrefilterSoundnessOnProbeCorpus(t *testing.T) {
	ex, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	pre := ex.pre
	if pre == nil || pre.ac == nil {
		t.Fatal("catalog extractor built no prefilter automaton")
	}
	if len(pre.always) != 0 {
		t.Errorf("catalog has %d always-run patterns; psigenelint opaquepattern should have caught them", len(pre.always))
	}
	if gated := len(ex.patterns) - len(pre.always); gated == 0 {
		t.Fatal("no gated patterns to test")
	}

	perProfile := 1000
	if testing.Short() {
		perProfile = 100
	}
	corpus := soundnessCorpus(perProfile, 42)

	alwaysRun := make([]bool, len(ex.patterns))
	for _, pi := range pre.always {
		alwaysRun[pi] = true
	}
	fired := make([]bool, len(ex.patterns))
	var violations int
	for _, sample := range corpus {
		for i := range fired {
			fired[i] = false
		}
		pre.ac.Scan([]byte(acmatch.Fold(sample)), func(lit int32) {
			for _, pi := range pre.owners[lit] {
				fired[pi] = true
			}
		})
		// Every pattern the gate would skip must genuinely not match.
		for pi := range ex.patterns {
			if fired[pi] || alwaysRun[pi] {
				continue
			}
			if ex.patterns[pi].re.MatchString(sample) {
				violations++
				if violations <= 5 {
					t.Errorf("pattern %q matches %q but none of its required literals fired",
						ex.set.Features[ex.patterns[pi].col].Pattern, sample)
				}
			}
		}
	}
	if violations > 5 {
		t.Errorf("... and %d more soundness violations", violations-5)
	}
}

// FuzzPrefilterSoundness drives the end-to-end property on arbitrary
// bytes: gated and ungated extraction must agree exactly. The
// seed corpus leans on the fold edge cases (ſ U+017F and the Kelvin
// sign U+212A share (?i) orbits with s and k) and on invalid UTF-8.
func FuzzPrefilterSoundness(f *testing.F) {
	gated, err := NewExtractor(Catalog())
	if err != nil {
		f.Fatal(err)
	}
	plain, err := NewUngatedExtractor(Catalog())
	if err != nil {
		f.Fatal(err)
	}

	seeds := []string{
		"",
		"id=1",
		"1' or '1'='1' --",
		"union select password from users",
		"UNION ſELECT 1,2,3", // ſ folds with s under (?i)
		"\u212aELVIN union",  // Kelvin sign folds with k
		"%27%20OR%201%3D1",
		"/* comment */ ; drop table t",
		"\xc5\xbf\xff\x00binary\x00junk\xe2\x84",
		"exists(select 1)&x=concat(a,b)",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sample := string(b)
		gc, gv := gated.SparseVector(sample)
		pc, pv := plain.SparseVector(sample)
		if !reflect.DeepEqual(gc, pc) || !reflect.DeepEqual(gv, pv) {
			t.Fatalf("prefiltered extraction diverges on %q:\n  gated cols=%v vals=%v\n  plain cols=%v vals=%v",
				sample, gc, gv, pc, pv)
		}
	})
}
