package ruleset

import (
	"math"
	"strings"
	"testing"
)

func TestAllRulesetsValidate(t *testing.T) {
	for _, rs := range []Ruleset{Bro(), Snort(), EmergingThreats(), SnortET(), ModSecCRS()} {
		if err := rs.Validate(); err != nil {
			t.Fatalf("%s: %v", rs.Name, err)
		}
	}
}

func TestTableIVCensusBro(t *testing.T) {
	st := Bro().Stats()
	if st.SQLiRules != 6 {
		t.Fatalf("Bro rules=%d, want 6", st.SQLiRules)
	}
	if st.EnabledFraction != 1 || st.RegexFraction != 1 {
		t.Fatalf("Bro enabled=%v regex=%v, want 100%%/100%%", st.EnabledFraction, st.RegexFraction)
	}
	// The paper measures avg 247.7 chars; ours must be in the same regime.
	if st.AvgPatternLength < 100 {
		t.Fatalf("Bro avg pattern length %.1f — too short for Bro's style", st.AvgPatternLength)
	}
}

func TestTableIVCensusSnort(t *testing.T) {
	st := Snort().Stats()
	if st.SQLiRules != 79 {
		t.Fatalf("Snort rules=%d, want 79", st.SQLiRules)
	}
	if math.Abs(st.EnabledFraction-0.61) > 0.02 {
		t.Fatalf("Snort enabled=%.3f, want ~0.61", st.EnabledFraction)
	}
	if math.Abs(st.RegexFraction-0.82) > 0.02 {
		t.Fatalf("Snort regex=%.3f, want ~0.82", st.RegexFraction)
	}
	if st.AvgPatternLength > 60 {
		t.Fatalf("Snort avg pattern length %.1f — too long for sql.rules style", st.AvgPatternLength)
	}
}

func TestTableIVCensusEmergingThreats(t *testing.T) {
	st := EmergingThreats().Stats()
	if st.SQLiRules != 4231 {
		t.Fatalf("ET rules=%d, want 4231", st.SQLiRules)
	}
	if st.EnabledFraction != 0 {
		t.Fatalf("ET enabled=%.3f, want 0", st.EnabledFraction)
	}
	if st.RegexFraction < 0.98 || st.RegexFraction >= 1 {
		t.Fatalf("ET regex=%.4f, want ~0.99", st.RegexFraction)
	}
}

func TestTableIVCensusModSec(t *testing.T) {
	st := ModSecCRS().Stats()
	if st.SQLiRules != 34 {
		t.Fatalf("ModSec rules=%d, want 34", st.SQLiRules)
	}
	if st.EnabledFraction != 1 || st.RegexFraction != 1 {
		t.Fatalf("ModSec enabled=%v regex=%v", st.EnabledFraction, st.RegexFraction)
	}
	if st.AvgPatternLength < 60 {
		t.Fatalf("ModSec avg pattern length %.1f — too short for CRS style", st.AvgPatternLength)
	}
}

func TestSnortNearDuplicatePair(t *testing.T) {
	// The paper calls out SIDs 19439/19440: identical regexes except for
	// the last character.
	var a, b string
	for _, r := range Snort().Rules {
		switch r.ID {
		case "snort:19439":
			a = r.Pattern
		case "snort:19440":
			b = r.Pattern
		}
	}
	if a == "" || b == "" {
		t.Fatal("SIDs 19439/19440 missing")
	}
	if a[:len(a)-1] != b[:len(b)-1] || a == b {
		t.Fatalf("19439/19440 must differ only in the last character:\n%q\n%q", a, b)
	}
}

func TestModSecRulesHaveScores(t *testing.T) {
	rs := ModSecCRS()
	if rs.Mode != ModeAnomalyScoring || rs.AnomalyThreshold <= 0 {
		t.Fatalf("ModSec must use anomaly scoring with a threshold: %+v", rs.Mode)
	}
	for _, r := range rs.Rules {
		if r.Score <= 0 {
			t.Fatalf("rule %s has no score", r.ID)
		}
	}
}

func TestSnortETMerge(t *testing.T) {
	m := SnortET()
	if len(m.Rules) != 79+4231 {
		t.Fatalf("merged rules=%d, want 4310", len(m.Rules))
	}
	if !strings.Contains(m.Name, "Snort") || !strings.Contains(m.Name, "Emerging") {
		t.Fatalf("merged name=%q", m.Name)
	}
}

func TestValidateRejectsBadRules(t *testing.T) {
	bad := Ruleset{Name: "x", Rules: []Rule{{ID: "1", Kind: MatchRegex, Pattern: "("}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid regex: want error")
	}
	empty := Ruleset{Name: "x", Rules: []Rule{{ID: "1", Kind: MatchContent}}}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty pattern: want error")
	}
}

func TestStatsEmptyRuleset(t *testing.T) {
	st := Ruleset{Name: "empty"}.Stats()
	if st.SQLiRules != 0 || st.EnabledFraction != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}
