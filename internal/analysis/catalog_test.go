package analysis

import (
	"strings"
	"testing"

	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/ml"
)

func pat(name, p string) feature.Feature {
	return feature.Feature{Name: name, Source: feature.SourceReference, Pattern: p}
}

func word(w string) feature.Feature {
	return feature.Feature{Name: w, Source: feature.SourceReservedWord, Word: w}
}

func checksOf(ds []Diagnostic) map[string]int {
	out := make(map[string]int)
	for _, d := range ds {
		out[d.Check]++
	}
	return out
}

func TestCheckCatalogStaticFlaws(t *testing.T) {
	set := feature.Set{Features: []feature.Feature{
		pat("a", `union`),
		pat("a2", `union`),        // dupfeature: same literal as "a"
		pat("bad", `se(lect`),     // badpattern: unbalanced paren
		pat("cls", `[a-zA-Z_]+=`), // caseclass: both cases under (?i)
		word("select"),
	}}
	ds := CheckCatalog(set, nil, nil, 0)
	got := checksOf(ds)
	want := map[string]int{CheckDupFeature: 1, CheckBadPattern: 1, CheckCaseClass: 1}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("check %s: %d findings, want %d\n%v", c, got[c], n, ds)
		}
	}
	if got[CheckNeverMatch] != 0 || got[CheckSubsumed] != 0 {
		t.Errorf("corpus checks ran without a corpus: %v", ds)
	}
}

func TestCheckCatalogCorpusFlaws(t *testing.T) {
	set := feature.Set{Features: []feature.Feature{
		pat("droptable", `drop\s+table`),
		pat("semidrop", `;\s*drop`), // fires exactly with "droptable" on this corpus
		pat("ghost", `xp_cmdshell`), // nevermatch: absent from the corpus
		pat("quote", `'`),           // distinct fire set: also matches the benign row
		word("drop"),                // same fire set as the drop patterns, but words are exempt
	}}
	corpus := []string{
		"1'; drop table users",
		"2'; drop table logs",
		"plain='value'",
	}
	ds := CheckCatalog(set, corpus, nil, 0)
	got := checksOf(ds)
	if got[CheckNeverMatch] != 1 {
		t.Errorf("nevermatch: %d findings, want 1 (ghost)\n%v", got[CheckNeverMatch], ds)
	}
	if got[CheckSubsumed] != 1 {
		t.Errorf("subsumed: %d findings, want 1 (semidrop vs droptable; the word is exempt)\n%v", got[CheckSubsumed], ds)
	}
	for _, d := range ds {
		if d.Check == CheckSubsumed {
			if !strings.Contains(d.Message, `"semidrop"`) || !strings.Contains(d.Message, `"droptable"`) {
				t.Errorf("subsumed pair misidentified: %s", d.Message)
			}
			if !strings.Contains(d.Message, "fully redundant") {
				t.Errorf("identical count columns should be called fully redundant: %s", d.Message)
			}
		}
	}
}

func TestCheckCatalogSubsumedCountsDiffer(t *testing.T) {
	set := feature.Set{Features: []feature.Feature{
		pat("open", `/\*`),
		pat("pair", `/\*.*?\*/`),
	}}
	// Both patterns fire on both rows, but the dangling opener in the
	// first sample gives open=2 vs pair=1, so the count columns differ.
	corpus := []string{"/* x */ /*", "/* y */"}
	ds := CheckCatalog(set, corpus, nil, 0)
	got := checksOf(ds)
	if got[CheckSubsumed] != 1 {
		t.Fatalf("subsumed: %d findings, want 1\n%v", got[CheckSubsumed], ds)
	}
	for _, d := range ds {
		if d.Check == CheckSubsumed && !strings.Contains(d.Message, "counts differ") {
			t.Errorf("differing count columns should be reported as such: %s", d.Message)
		}
	}
}

func TestCheckCatalogOpaquePatterns(t *testing.T) {
	set := feature.Set{Features: []feature.Feature{
		pat("any", `.+`),        // no literal anywhere in the tree
		pat("wide", `[^\x00]+`), // class far over the per-class literal cap
		pat("star", `(union)*`), // may match empty, so no literal is required
		pat("gated", `union\s+select`),
		pat("class", `[<>]`), // small class: per-member literals derive
		word("select"),       // reserved words bypass the regex engine entirely
	}}
	ds := CheckCatalog(set, nil, nil, 0)
	var opaque []Diagnostic
	for _, d := range ds {
		if d.Check == CheckOpaquePattern {
			opaque = append(opaque, d)
		}
	}
	if len(opaque) != 3 {
		t.Fatalf("opaquepattern: %d findings, want 3 (any, wide, star)\n%v", len(opaque), ds)
	}
	for _, d := range opaque {
		if !strings.Contains(d.Message, "required-literal") {
			t.Errorf("message should explain the missing literal set: %s", d.Message)
		}
	}
}

// TestCatalogFullyGated pins the property the serving fast path relies
// on: every regex feature in the shipped catalog derives at least one
// required literal, so the prefilter's always-run set is empty. A new
// catalog pattern that breaks this shows up here (and in psigenelint)
// rather than as a silent per-request slowdown.
func TestCatalogFullyGated(t *testing.T) {
	ds := CheckCatalog(feature.Catalog(), nil, nil, 0)
	for _, d := range ds {
		if d.Check == CheckOpaquePattern {
			t.Errorf("shipped catalog pattern is prefilter-opaque: %s", d.Message)
		}
	}
}

func TestRedundantCaseClass(t *testing.T) {
	cases := []struct {
		pattern, want string
	}{
		{`[a-zA-Z]`, `[a-zA-Z]`},
		{`[^a-zA-Z&]+=`, `[^a-zA-Z&]`},
		{`[aA]`, `[aA]`},
		{`[a-z]`, ""},
		{`[A-Z0-9]`, ""},
		{`[a-f][G-Z]`, ""}, // disjoint letters across two classes
		{`\[a-zA-Z\]`, ""}, // escaped brackets are literals, not a class
		{`[]a-zA-Z]`, `[]a-zA-Z]`},
		{`[a-`, ""}, // malformed: left to the compile check
		{`plain`, ""},
	}
	for _, c := range cases {
		if got := redundantCaseClass(c.pattern); got != c.want {
			t.Errorf("redundantCaseClass(%q) = %q, want %q", c.pattern, got, c.want)
		}
	}
}

func TestCheckSignatures(t *testing.T) {
	m, err := (&core.Model{Signatures: []*core.Signature{
		{ID: 1, Features: []int{0, 1},
			Model: &ml.LogisticModel{Bias: 0.1, Weights: []float64{1, -2}}},
		{ID: 2, Features: []int{0},
			Model: &ml.LogisticModel{Bias: -3, Weights: []float64{0}}}, // dead, never fires
		{ID: 3, Features: []int{0},
			Model: &ml.LogisticModel{Bias: 3, Weights: []float64{0}}}, // dead, always fires
		{ID: 4, Features: nil, Model: nil}, // dead, nothing left after pruning
	}}).WithThresholds([]float64{0.5, 0.5, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	ds := CheckSignatures(m, "model.json")
	if len(ds) != 3 {
		t.Fatalf("%d findings, want 3 dead signatures\n%v", len(ds), ds)
	}
	for _, d := range ds {
		if d.Check != CheckDeadSig {
			t.Errorf("unexpected check %s", d.Check)
		}
		if d.Pos.Filename != "model.json" {
			t.Errorf("diagnostic not anchored to origin: %v", d.Pos)
		}
	}
	if !strings.Contains(ds[0].Message, "signature 2") || !strings.Contains(ds[0].Message, "never fires") {
		t.Errorf("signature 2 verdict: %s", ds[0].Message)
	}
	if !strings.Contains(ds[1].Message, "signature 3") || !strings.Contains(ds[1].Message, "fires on every request") {
		t.Errorf("signature 3 verdict: %s", ds[1].Message)
	}
	if !strings.Contains(ds[2].Message, "signature 4") || !strings.Contains(ds[2].Message, "no features") {
		t.Errorf("signature 4 verdict: %s", ds[2].Message)
	}
}

func TestProbeCorpusDeterministic(t *testing.T) {
	a := ProbeCorpus(5, DefaultProbeSeed)
	b := ProbeCorpus(5, DefaultProbeSeed)
	if len(a) != 20 {
		t.Fatalf("corpus has %d samples, want 5 per profile x 4 profiles", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between identically seeded runs", i)
		}
	}
}
