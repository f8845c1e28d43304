package feature

import (
	"fmt"
	"regexp/syntax"
	"sort"
	"sync/atomic"

	"psigene/internal/acmatch"
)

// The staged-detection pre-filter. Every catalog regex is analyzed once,
// at extractor construction, for its *required literals*: a set of ASCII
// strings such that any text the (?i)-compiled pattern matches must
// contain at least one of them, case-insensitively. All literals of all
// patterns compile into one Aho-Corasick automaton (internal/acmatch);
// extraction scans each sample once and evaluates only the regexes whose
// literals actually occurred. Patterns with no derivable literal join the
// always-run set — counted in PrefilterStats, never silently dropped.
//
// Soundness is the only correctness requirement: a literal that fires
// without the regex matching costs one wasted regex evaluation, but a
// regex that could match while none of its literals fire would change
// extraction output. The derivation below is therefore conservative — any
// construct it cannot bound makes the node (and possibly the pattern)
// opaque. The acmatch scanner folds exactly like Go's regexp folds ASCII
// under (?i), including the two non-ASCII orbit members ſ U+017F → 's'
// and K U+212A → 'k', so case-variant and fold-variant spellings of a
// literal still hit.

const (
	// maxClassLiterals caps how many single-byte literals one character
	// class may contribute ([0-9] is worth expanding, [^\x00] is not).
	maxClassLiterals = 16
	// maxPatternLiterals caps a pattern's total literal set; beyond it
	// the pattern is treated as opaque (always-run) rather than bloating
	// the automaton.
	maxPatternLiterals = 64
)

// RequiredLiterals derives the required-literal set of a catalog pattern,
// analyzed exactly as the extractor compiles it: "(?i)" + pattern, Perl
// syntax. It returns the deduplicated, sorted, lowercase-ASCII literal
// set and ok=true when every way the pattern can match guarantees at
// least one of the literals, case-insensitively, in the matched text.
// ok=false means the pattern is prefilter-opaque (no such finite set was
// derivable) or does not parse; such patterns must always run.
func RequiredLiterals(pattern string) ([]string, bool) {
	re, err := syntax.Parse("(?i)"+pattern, syntax.Perl)
	if err != nil {
		return nil, false
	}
	lits, ok := nodeLiterals(re)
	if !ok || len(lits) == 0 {
		return nil, false
	}
	sort.Strings(lits)
	lits = dedupSorted(lits)
	if len(lits) > maxPatternLiterals {
		return nil, false
	}
	return lits, true
}

func dedupSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// foldRuneASCII maps a rune that can appear in matched text to the byte
// the acmatch scanner folds it to: ASCII lowercased, ſ U+017F → 's',
// K U+212A → 'k'. Any other rune has no folded-ASCII image, so a literal
// containing it cannot be matched by the scanner.
func foldRuneASCII(r rune) (byte, bool) {
	switch {
	case r >= 'A' && r <= 'Z':
		return byte(r) + 'a' - 'A', true
	case r >= 0 && r < 0x80:
		return byte(r), true
	case r == 0x017F: // ſ folds with s
		return 's', true
	case r == 0x212A: // Kelvin sign folds with k
		return 'k', true
	}
	return 0, false
}

// pureLiteral reports the folded byte string of a pattern whose compiled
// form "(?i)"+pattern is exactly one literal — no classes, repetition,
// anchors, or alternation. Such patterns are counted by a direct folded
// byte scan (see countMatches), which allocates nothing, instead of
// running the regexp engine. Literals containing 's' or 'k' are excluded:
// their (?i) fold orbits include the multi-byte runes ſ U+017F and
// K U+212A, which a fixed-width byte scan cannot track — those patterns
// keep the regex path. Returns nil when the pattern does not qualify.
func pureLiteral(pattern string) []byte {
	re, err := syntax.Parse("(?i)"+pattern, syntax.Perl)
	if err != nil || re.Op != syntax.OpLiteral || len(re.Rune) == 0 {
		return nil
	}
	b := make([]byte, 0, len(re.Rune))
	for _, r := range re.Rune {
		c, ok := foldRuneASCII(r)
		if !ok || c == 's' || c == 'k' {
			return nil
		}
		b = append(b, c)
	}
	return b
}

// nodeLiterals computes the required-literal set of one parse-tree node:
// a set L such that every match of the node contains some l ∈ L in its
// folded view. ok=false when no such finite set exists for this node.
func nodeLiterals(re *syntax.Regexp) ([]string, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		// A literal's match is the literal itself (any fold-variant when
		// the fold flag is set — the scanner folds those back).
		if len(re.Rune) == 0 {
			return nil, false
		}
		b := make([]byte, 0, len(re.Rune))
		for _, r := range re.Rune {
			c, ok := foldRuneASCII(r)
			if !ok {
				return nil, false
			}
			b = append(b, c)
		}
		return []string{string(b)}, true

	case syntax.OpCharClass:
		// A class matches exactly one rune from its ranges; every member
		// must fold to an ASCII byte and the expansion must stay small.
		seen := make(map[byte]bool, maxClassLiterals)
		var lits []string
		for i := 0; i+1 < len(re.Rune); i += 2 {
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				c, ok := foldRuneASCII(r)
				if !ok {
					return nil, false
				}
				if seen[c] {
					continue
				}
				if len(lits) >= maxClassLiterals {
					return nil, false
				}
				seen[c] = true
				lits = append(lits, string([]byte{c}))
			}
		}
		if len(lits) == 0 {
			return nil, false
		}
		return lits, true

	case syntax.OpConcat:
		// Every child's text is present in the match, so any single
		// child's set works; pick the most selective one — longest
		// minimum literal, then fewest literals, then the earliest child
		// (a deterministic tie-break).
		var best []string
		bestScore := -1
		for _, sub := range re.Sub {
			lits, ok := nodeLiterals(sub)
			if !ok {
				continue
			}
			minLen := len(lits[0])
			for _, l := range lits[1:] {
				if len(l) < minLen {
					minLen = len(l)
				}
			}
			// Score: longer guaranteed literals dominate; among equals,
			// smaller sets win. 1024 bounds any real literal set size.
			score := minLen*1024 + (1024 - len(lits))
			if score > bestScore {
				best, bestScore = lits, score
			}
		}
		return best, best != nil

	case syntax.OpAlternate:
		// A match comes from some branch, so the union works — but every
		// branch must contribute, or a match through the opaque branch
		// could fire no literal.
		var union []string
		for _, sub := range re.Sub {
			lits, ok := nodeLiterals(sub)
			if !ok {
				return nil, false
			}
			union = append(union, lits...)
		}
		if len(union) == 0 || len(union) > maxPatternLiterals {
			return nil, false
		}
		return union, true

	case syntax.OpCapture:
		return nodeLiterals(re.Sub[0])

	case syntax.OpPlus:
		// x+ contains at least one x.
		return nodeLiterals(re.Sub[0])

	case syntax.OpRepeat:
		if re.Min >= 1 {
			return nodeLiterals(re.Sub[0])
		}
		return nil, false

	default:
		// OpStar, OpQuest, OpRepeat{0,n}: possibly empty. OpAnyChar*:
		// unbounded alphabet. Anchors, boundaries, OpEmptyMatch: zero
		// width. OpNoMatch: no text to anchor on. All opaque.
		return nil, false
	}
}

// prefilter is the compiled literal gate shared by every extraction path.
type prefilter struct {
	// ac matches every distinct literal of every gated pattern; nil when
	// no pattern contributed a literal.
	ac *acmatch.Automaton
	// lits holds the distinct literals in automaton pattern-index order.
	lits []string
	// owners maps a literal index to the e.patterns indices it gates.
	owners [][]int32
	// always holds the e.patterns indices evaluated on every sample:
	// the prefilter-opaque patterns.
	always []int32
}

// prefilterStats is the extractor's atomic counter block.
type prefilterStats struct {
	samples   atomic.Int64
	evaluated atomic.Int64
	skipped   atomic.Int64
}

// PrefilterStats is a snapshot of pre-filter effectiveness: cumulative
// per-sample counters plus the static census of the compiled gate.
type PrefilterStats struct {
	// Samples counts extractions that went through the pre-filter.
	Samples int64 `json:"samples"`
	// Evaluated and Skipped count regex evaluations run vs. avoided
	// across those samples (they sum to Samples × pattern count).
	Evaluated int64 `json:"evaluated"`
	Skipped   int64 `json:"skipped"`
	// Literals is the number of distinct automaton literals; Gated and
	// AlwaysRun split the pattern census by whether a literal set was
	// derivable.
	Literals  int `json:"literals"`
	Gated     int `json:"gated"`
	AlwaysRun int `json:"alwaysRun"`
}

// buildPrefilter derives every pattern's literal set and compiles the
// automaton. Construction is deterministic: literals are numbered in
// first-appearance order over patterns in column order.
func (e *Extractor) buildPrefilter() error {
	litIdx := make(map[string]int)
	pre := &prefilter{}
	for pi := range e.patterns {
		lits, ok := RequiredLiterals(e.set.Features[e.patterns[pi].col].Pattern)
		if !ok {
			pre.always = append(pre.always, int32(pi))
			continue
		}
		for _, l := range lits {
			k, seen := litIdx[l]
			if !seen {
				k = len(pre.lits)
				litIdx[l] = k
				pre.lits = append(pre.lits, l)
				pre.owners = append(pre.owners, nil)
			}
			pre.owners[k] = append(pre.owners[k], int32(pi))
		}
	}
	if len(pre.lits) > 0 {
		ac, err := acmatch.New(pre.lits)
		if err != nil {
			return fmt.Errorf("feature: compiling prefilter literals: %w", err)
		}
		pre.ac = ac
	}
	e.pre = pre
	return nil
}

// PrefilterStats snapshots the pre-filter counters and census.
func (e *Extractor) PrefilterStats() PrefilterStats {
	s := PrefilterStats{
		Samples:   e.stats.samples.Load(),
		Evaluated: e.stats.evaluated.Load(),
		Skipped:   e.stats.skipped.Load(),
	}
	if e.pre != nil {
		s.Literals = len(e.pre.lits)
		s.AlwaysRun = len(e.pre.always)
		s.Gated = len(e.patterns) - len(e.pre.always)
	}
	return s
}
