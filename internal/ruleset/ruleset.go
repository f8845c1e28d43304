// Package ruleset holds the built-in SQLi rule sets the paper compares
// against (Table IV): Bro 2.0's six signatures, the merged Snort 2920 +
// Emerging Threats 7098 set, and the ModSecurity CRS 2.2.4 set. The live
// rulesets are gated resources; these are hand-authored reproductions in
// each system's characteristic style (rule counts, enabled fractions, regex
// usage, and rule-length distributions per Table IV), sufficient to
// reproduce the engines' comparative behaviour.
package ruleset

import (
	"fmt"
	"regexp"
)

// MatchKind distinguishes regex rules from plain content (substring) rules;
// Table IV reports the regex fraction per set.
type MatchKind int

// Rule match kinds.
const (
	MatchRegex MatchKind = iota + 1
	MatchContent
)

// Target selects what part of the request a rule inspects.
type Target int

// Rule targets.
const (
	// TargetPayload matches the extracted query payload (normalized
	// lowercase for content rules; regexes are case-insensitive).
	TargetPayload Target = iota + 1
	// TargetURI matches path plus query, as Snort/ET uricontent rules do.
	TargetURI
)

// Rule is one detection rule.
type Rule struct {
	// ID is the rule identifier in its home ruleset (e.g. Snort SID).
	ID string
	// Description is the rule message.
	Description string
	// Kind says whether Pattern is a regex or a plain substring.
	Kind MatchKind
	// Target selects the inspected request part.
	Target Target
	// Pattern is the regex source or lowercase substring.
	Pattern string
	// Enabled mirrors the distribution default; disabled rules are counted
	// in Table IV but skipped by engines unless explicitly included.
	Enabled bool
	// Score is the anomaly contribution for scoring engines (ModSec);
	// deterministic engines ignore it.
	Score int
}

// Mode is the engine semantics a ruleset is written for.
type Mode int

// Ruleset modes.
const (
	// ModeDeterministic alerts on any single matching rule (Snort, Bro).
	ModeDeterministic Mode = iota + 1
	// ModeAnomalyScoring sums matching rule scores against a threshold
	// (ModSecurity).
	ModeAnomalyScoring
)

// Ruleset is a named collection of rules plus its engine semantics.
type Ruleset struct {
	// Name and Version identify the distribution (Table IV rows).
	Name, Version string
	// Mode selects deterministic or anomaly-scoring semantics.
	Mode Mode
	// AnomalyThreshold applies in ModeAnomalyScoring.
	AnomalyThreshold int
	// Rules is the full rule list, enabled or not.
	Rules []Rule
}

// Stats summarizes a ruleset for Table IV.
type Stats struct {
	Name, Version    string
	SQLiRules        int
	EnabledFraction  float64
	RegexFraction    float64
	AvgPatternLength float64
	MaxPatternLength int
	MinPatternLength int
}

// Stats computes the Table IV row for the ruleset.
func (rs Ruleset) Stats() Stats {
	st := Stats{Name: rs.Name, Version: rs.Version, SQLiRules: len(rs.Rules)}
	if len(rs.Rules) == 0 {
		return st
	}
	var enabled, regex, totalLen int
	st.MinPatternLength = len(rs.Rules[0].Pattern)
	for _, r := range rs.Rules {
		if r.Enabled {
			enabled++
		}
		if r.Kind == MatchRegex {
			regex++
		}
		l := len(r.Pattern)
		totalLen += l
		if l > st.MaxPatternLength {
			st.MaxPatternLength = l
		}
		if l < st.MinPatternLength {
			st.MinPatternLength = l
		}
	}
	n := float64(len(rs.Rules))
	st.EnabledFraction = float64(enabled) / n
	st.RegexFraction = float64(regex) / n
	st.AvgPatternLength = float64(totalLen) / n
	return st
}

// Validate compiles every regex rule, returning the first error.
// Kept for TestAllRulesetsValidate, which checks the shipped rule data.
func (rs Ruleset) Validate() error {
	for _, r := range rs.Rules {
		if r.Pattern == "" {
			return fmt.Errorf("ruleset %s: rule %s has empty pattern", rs.Name, r.ID)
		}
		if r.Kind == MatchRegex {
			if _, err := regexp.Compile("(?i)" + r.Pattern); err != nil {
				return fmt.Errorf("ruleset %s: rule %s: %w", rs.Name, r.ID, err)
			}
		}
	}
	return nil
}
