// Package acmatch implements a deterministic Aho-Corasick automaton used
// as the staged-detection pre-filter: a single pass over a sample reports
// every occurrence of every literal in a fixed set, so the serving path
// can skip regex features whose required literals never appear
// (hyperscan-style literal-first dispatch).
//
// Matching is case-insensitive under exactly the fold Go's regexp applies
// to (?i) patterns restricted to ASCII literals: scanning folds ASCII
// 'A'–'Z' to lowercase and additionally folds the only two non-ASCII
// runes whose simple-fold orbits contain ASCII letters — ſ U+017F (long
// s, bytes C5 BF) to 's' and K U+212A (Kelvin sign, bytes E2 84 AA) to
// 'k'. Every other byte is matched verbatim, so a false *hit* on exotic
// input is possible in principle (the regex still decides), but a literal
// that a (?i)-compiled regex would accept can never be missed.
//
// Construction is fully deterministic: the trie is grown in pattern
// order, children are created on first use, and fail links are resolved
// in BFS order, so identical pattern lists always produce identical
// automata. Only the standard library is used.
package acmatch

import "fmt"

// Automaton is a compiled literal set. It is immutable after New and safe
// for concurrent Scan calls.
type Automaton struct {
	// next is the DFA-complete transition table, states × 256; the
	// transition from state s on folded byte c is next[s<<8|c].
	next []int32
	// out lists, per state, the indices of the patterns that end at the
	// state (including every fail-chain suffix).
	out [][]int32
}

// foldByte lowercases ASCII letters; other bytes pass through.
func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// New compiles the pattern set. Patterns must be non-empty ASCII strings;
// they are folded to lowercase, so "UNION" and "union" are the same
// pattern (hits report the index of whichever the caller passed).
func New(patterns []string) (*Automaton, error) {
	// State 0 is the root. trans holds 256 int32 slots per state; a zero
	// entry means "no trie edge yet" during construction (no real child
	// can be state 0) and becomes a DFA transition in the BFS pass.
	trans := make([]int32, 256, 256*(len(patterns)*4+1))
	fail := []int32{0}
	out := [][]int32{nil}
	addState := func() int32 {
		trans = append(trans, make([]int32, 256)...)
		fail = append(fail, 0)
		out = append(out, nil)
		return int32(len(fail) - 1)
	}

	for pi, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("acmatch: pattern %d is empty", pi)
		}
		s := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			if c >= 0x80 {
				return nil, fmt.Errorf("acmatch: pattern %d (%q) is not ASCII", pi, p)
			}
			c = foldByte(c)
			t := trans[int(s)<<8|int(c)]
			if t == 0 {
				t = addState()
				trans[int(s)<<8|int(c)] = t
			}
			s = t
		}
		out[s] = append(out[s], int32(pi))
	}

	// BFS: assign fail links, merge fail-chain outputs, and complete the
	// table into a DFA (missing edges borrow the fail state's resolved
	// row; missing root edges stay at the root).
	queue := make([]int32, 0, len(fail))
	for c := 0; c < 256; c++ {
		if t := trans[c]; t != 0 {
			queue = append(queue, t)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		// fail[s] is shallower than s, so its outputs are already merged
		// and its row already DFA-complete.
		out[s] = append(out[s], out[fail[s]]...)
		base, fbase := int(s)<<8, int(fail[s])<<8
		for c := 0; c < 256; c++ {
			if t := trans[base|c]; t != 0 {
				fail[t] = trans[fbase|c]
				queue = append(queue, t)
			} else {
				trans[base|c] = trans[fbase|c]
			}
		}
	}
	return &Automaton{next: trans, out: out}, nil
}

// Scan folds b and calls hit with the pattern index of every occurrence
// of every pattern, in left-to-right end-position order; a pattern
// occurring k times is reported k times. hit must not retain the scan.
func (a *Automaton) Scan(b []byte, hit func(pattern int32)) {
	s := int32(0)
	next, out := a.next, a.out
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c == 0xC5 && i+1 < len(b) && b[i+1] == 0xBF: // ſ U+017F
			c = 's'
			i++
		case c == 0xE2 && i+2 < len(b) && b[i+1] == 0x84 && b[i+2] == 0xAA: // K U+212A
			c = 'k'
			i += 2
		}
		s = next[int(s)<<8|int(c)]
		for _, p := range out[s] {
			hit(p)
		}
	}
}

// Fold returns the folded view of s that Scan matches literals against:
// ASCII letters lowercased, ſ U+017F replaced by 's' and K U+212A by
// 'k'. Tests (TestPrefilterSoundnessOnProbeCorpus) use it to state the
// scanner's guarantee as a plain strings.Contains over the folded sample.
func Fold(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c == 0xC5 && i+1 < len(s) && s[i+1] == 0xBF:
			c = 's'
			i++
		case c == 0xE2 && i+2 < len(s) && s[i+1] == 0x84 && s[i+2] == 0xAA:
			c = 'k'
			i += 2
		}
		b = append(b, c)
	}
	return string(b)
}
