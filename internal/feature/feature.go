// Package feature implements pSigene's second phase: characterizing each
// attack sample by a rich set of count-valued features drawn from three
// domain-specific sources (Table II of the paper):
//
//   - MySQL reserved words, which become word-boundary token features;
//   - deconstructed signatures from Snort, Bro and the ModSecurity CRS,
//     split at regex group boundaries into fragment features;
//   - SQLi reference documents, contributing common attack strings.
//
// The full catalog holds 477 candidate features; after extraction over a
// training corpus, features never observed are pruned (the paper lands on
// 159 for its crawl).
package feature

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"psigene/internal/matrix"
)

// Source identifies where a feature came from (Table II).
type Source int

// Feature sources, in the paper's presentation order.
const (
	SourceReservedWord Source = iota + 1
	SourceSignature
	SourceReference
)

// String names the source as in Table II.
func (s Source) String() string {
	switch s {
	case SourceReservedWord:
		return "MySQL Reserved Words"
	case SourceSignature:
		return "NIDS/WAF Signatures"
	case SourceReference:
		return "SQLi Reference Documents"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Feature is one catalog entry. Exactly one of Word or Pattern is set:
// Word features count whole-token occurrences of a reserved word, Pattern
// features count non-overlapping case-insensitive regex matches.
type Feature struct {
	// Name is the unique human-readable identifier (the pattern itself for
	// regex features, the bare word for reserved words).
	Name string
	// Source records the Table II provenance.
	Source Source
	// Word, when non-empty, makes this a token-count feature.
	Word string
	// Pattern, when non-empty, is an RE2 regular expression.
	Pattern string
}

// Set is an ordered collection of features; column j of a feature matrix
// corresponds to Features[j].
type Set struct {
	Features []Feature
}

// Len returns the number of features.
func (s Set) Len() int { return len(s.Features) }

// Names returns the feature names in column order.
func (s Set) Names() []string {
	out := make([]string, len(s.Features))
	for i, f := range s.Features {
		out[i] = f.Name
	}
	return out
}

// CountBySource tallies features per Table II source.
func (s Set) CountBySource() map[Source]int {
	out := make(map[Source]int, 3)
	for _, f := range s.Features {
		out[f.Source]++
	}
	return out
}

// Select returns a new Set with only the given feature indices, in order.
func (s Set) Select(idx []int) (Set, error) {
	out := Set{Features: make([]Feature, 0, len(idx))}
	for _, j := range idx {
		if j < 0 || j >= len(s.Features) {
			return Set{}, fmt.Errorf("feature: index %d out of range %d", j, len(s.Features))
		}
		out.Features = append(out.Features, s.Features[j])
	}
	return out, nil
}

// Catalog returns the full candidate feature set. The paper starts from 477
// candidates; this catalog reproduces that census across the three sources.
func Catalog() Set {
	feats := make([]Feature, 0, 480)
	for _, w := range mysqlReservedWords {
		feats = append(feats, Feature{Name: w, Source: SourceReservedWord, Word: w})
	}
	for _, p := range signatureFragments {
		feats = append(feats, Feature{Name: p, Source: SourceSignature, Pattern: p})
	}
	for _, p := range referencePatterns {
		feats = append(feats, Feature{Name: p, Source: SourceReference, Pattern: p})
	}
	return Set{Features: feats}
}

// Extractor turns samples into count vectors over a feature set. Reserved
// words are counted by tokenizing once per sample; regex features are
// gated by the literal pre-filter (see prefilter.go) and matched only
// when one of their required literals occurred in the sample.
type Extractor struct {
	set      Set
	words    map[string][]int // token -> feature columns
	patterns []compiledPattern
	pre      *prefilter // nil on an ungated extractor (NewUngatedExtractor)
	stats    prefilterStats
	scratch  sync.Pool // *Scratch, reused across extraction calls
}

// Scratch holds every reusable buffer of one extraction: the full-width
// accumulator, the touched-column list, the borrowed sparse result, the
// sample and token copy buffers, and the generation-stamped pre-filter
// dedup arrays. One Scratch serves one extraction at a time; acquire it
// from the owning Extractor and release it when done, or hold one per
// serving session to make the hot path allocation-free.
type Scratch struct {
	v       []float64
	touched []int
	cols    []int
	vals    []float64
	sample  []byte
	tok     []byte
	fired   []int32
	litGen  []uint32
	patGen  []uint32
	gen     uint32
}

type compiledPattern struct {
	col int
	re  *regexp.Regexp
	// contextFree marks patterns with no anchors or word boundaries,
	// whose match count can be accumulated with FindIndex from an
	// advancing offset instead of materializing every match position.
	contextFree bool
	// lit, when non-nil, is the folded form of a pattern that is exactly
	// one case-insensitive literal; such patterns are counted by a direct
	// byte scan with no regexp-engine call (and no allocation) at all.
	lit []byte
}

// NewExtractor compiles a feature set with its literal pre-filter.
// Duplicate names and invalid patterns are rejected.
func NewExtractor(set Set) (*Extractor, error) { return newExtractor(set, true) }

// NewUngatedExtractor compiles a feature set without the pre-filter, so
// every regex runs on every sample: the bit-identical reference the parity
// tests and the soundness fuzzer check the gate against. No serving caller.
func NewUngatedExtractor(set Set) (*Extractor, error) { return newExtractor(set, false) }

func newExtractor(set Set, gated bool) (*Extractor, error) {
	e := &Extractor{set: set, words: make(map[string][]int)}
	seen := make(map[string]bool, len(set.Features))
	for j, f := range set.Features {
		if f.Name == "" {
			return nil, fmt.Errorf("feature %d: empty name", j)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("feature %d: duplicate name %q", j, f.Name)
		}
		seen[f.Name] = true
		switch {
		case f.Word != "" && f.Pattern != "":
			return nil, fmt.Errorf("feature %q: both Word and Pattern set", f.Name)
		case f.Word != "":
			w := strings.ToLower(f.Word)
			e.words[w] = append(e.words[w], j)
		case f.Pattern != "":
			re, err := regexp.Compile("(?i)" + f.Pattern)
			if err != nil {
				return nil, fmt.Errorf("feature %q: %w", f.Name, err)
			}
			e.patterns = append(e.patterns, compiledPattern{
				col: j, re: re,
				contextFree: isContextFree(f.Pattern),
				lit:         pureLiteral(f.Pattern),
			})
		default:
			return nil, fmt.Errorf("feature %q: neither Word nor Pattern set", f.Name)
		}
	}
	if gated {
		if err := e.buildPrefilter(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// isContextFree reports whether a pattern's match set at any position is
// independent of the surrounding text: no text/line anchors and no word
// boundaries. Only context-free patterns may count matches by re-slicing
// the sample from an advancing offset — slicing resets the context those
// constructs inspect. Parse errors return false (the compile step in
// NewExtractor reports them properly).
func isContextFree(pattern string) bool {
	re, err := syntax.Parse("(?i)"+pattern, syntax.Perl)
	if err != nil {
		return false
	}
	return contextFreeNode(re)
}

func contextFreeNode(re *syntax.Regexp) bool {
	switch re.Op {
	case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText,
		syntax.OpEndText, syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return false
	}
	for _, sub := range re.Sub {
		if !contextFreeNode(sub) {
			return false
		}
	}
	return true
}

// newScratch builds a Scratch sized for this extractor.
func (e *Extractor) newScratch() *Scratch {
	sc := &Scratch{v: make([]float64, len(e.set.Features))}
	if e.pre != nil {
		sc.litGen = make([]uint32, len(e.pre.lits))
		sc.patGen = make([]uint32, len(e.patterns))
	}
	return sc
}

// AcquireScratch borrows a Scratch from the extractor's pool. Callers on
// a steady-state serving path should hold one per session (see
// core.Model's session support) so extraction allocates nothing.
func (e *Extractor) AcquireScratch() *Scratch {
	sc, _ := e.scratch.Get().(*Scratch)
	if sc == nil || len(sc.v) != len(e.set.Features) {
		sc = e.newScratch()
	}
	return sc
}

// ReleaseScratch returns a Scratch to the pool. The slices borrowed from
// it by SparseInto become invalid.
func (e *Extractor) ReleaseScratch(sc *Scratch) { e.scratch.Put(sc) }

// SparseVector extracts only the nonzero feature counts of one
// (normalized) sample, returning ascending column indices and their
// counts. The per-call cost and allocation are proportional to the number
// of features that actually fire — on benign serving traffic (the paper's
// FPR-dominated workload) that is a handful out of hundreds. The returned
// slices are fresh; zero-allocation callers use SparseInto with a held
// Scratch instead.
func (e *Extractor) SparseVector(sample string) (cols []int, vals []float64) {
	sc := e.AcquireScratch()
	sc.sample = append(sc.sample[:0], sample...)
	bcols, bvals := e.SparseInto(sc.sample, sc)
	cols = make([]int, len(bcols))
	vals = make([]float64, len(bvals))
	copy(cols, bcols)
	copy(vals, bvals)
	e.ReleaseScratch(sc)
	return cols, vals
}

// SparseInto extracts the sparse count vector of one (normalized) sample
// given as bytes, using only sc's buffers: ascending column indices and
// their counts, borrowed from sc and valid until its next use. This is
// the allocation-free serving core every other extraction entry point
// wraps.
func (e *Extractor) SparseInto(sample []byte, sc *Scratch) (cols []int, vals []float64) {
	sc.touched = sc.touched[:0]

	// Reserved words: one tokenization pass shared by every word feature.
	i := 0
	for i < len(sample) {
		if !isWordByte(sample[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(sample) && isWordByte(sample[j]) {
			j++
		}
		for _, col := range e.lookupWord(sample[i:j], sc) {
			if sc.v[col] == 0 {
				sc.touched = append(sc.touched, col)
			}
			sc.v[col]++
		}
		i = j
	}

	// Regex patterns: all of them on an ungated extractor, otherwise only
	// those whose required literals occurred plus the always-run set.
	if e.pre == nil {
		for pi := range e.patterns {
			e.countPattern(pi, sample, sc)
		}
	} else {
		pre := e.pre
		sc.gen++
		if sc.gen == 0 { // generation wrapped: stamps are ambiguous, reset
			clear(sc.litGen)
			clear(sc.patGen)
			sc.gen = 1
		}
		sc.fired = sc.fired[:0]
		if pre.ac != nil {
			pre.ac.Scan(sample, func(lit int32) {
				if sc.litGen[lit] == sc.gen {
					return
				}
				sc.litGen[lit] = sc.gen
				for _, pi := range pre.owners[lit] {
					if sc.patGen[pi] != sc.gen {
						sc.patGen[pi] = sc.gen
						sc.fired = append(sc.fired, pi)
					}
				}
			})
		}
		for _, pi := range sc.fired {
			e.countPattern(int(pi), sample, sc)
		}
		for _, pi := range pre.always {
			e.countPattern(int(pi), sample, sc)
		}
		ran := len(sc.fired) + len(pre.always)
		e.stats.samples.Add(1)
		e.stats.evaluated.Add(int64(ran))
		e.stats.skipped.Add(int64(len(e.patterns) - ran))
	}

	// Sorting the touched columns makes the output independent of the
	// order patterns were evaluated in, so the gated and ungated paths
	// are bit-identical by construction.
	sort.Ints(sc.touched)
	sc.cols, sc.vals = sc.cols[:0], sc.vals[:0]
	for _, j := range sc.touched {
		sc.cols = append(sc.cols, j)
		sc.vals = append(sc.vals, sc.v[j])
		sc.v[j] = 0
	}
	return sc.cols, sc.vals
}

// countPattern evaluates one regex feature and records its match count.
func (e *Extractor) countPattern(pi int, sample []byte, sc *Scratch) {
	cp := &e.patterns[pi]
	if n := countMatches(cp, sample); n > 0 {
		sc.v[cp.col] = float64(n)
		sc.touched = append(sc.touched, cp.col)
	}
}

// countMatches counts non-overlapping matches with FindAllIndex
// semantics. Context-free patterns (the catalog norm) count incrementally
// with FindIndex from an advancing offset — no per-match allocations —
// replicating regexp's non-overlapping scan exactly: empty matches
// abutting the previous match are skipped and advance by one rune.
// Patterns with anchors or word boundaries fall back to FindAllIndex,
// because re-slicing the sample would reset the context they inspect.
func countMatches(cp *compiledPattern, sample []byte) int {
	if cp.lit != nil {
		return countFoldedLiteral(sample, cp.lit)
	}
	if !cp.contextFree {
		return len(cp.re.FindAllIndex(sample, -1))
	}
	n, pos, prevEnd := 0, 0, -1
	for pos <= len(sample) {
		loc := cp.re.FindIndex(sample[pos:])
		if loc == nil {
			break
		}
		start, end := pos+loc[0], pos+loc[1]
		if end > start {
			n++
			pos, prevEnd = end, end
			continue
		}
		// Empty match. A context-free pattern that matches empty anywhere
		// matches empty everywhere, so start == pos here; count it unless
		// it abuts the previous match, then advance one rune.
		if start != prevEnd {
			n++
		}
		prevEnd = end
		if start == len(sample) {
			break
		}
		_, width := utf8.DecodeRune(sample[start:])
		pos = start + width
	}
	return n
}

// countFoldedLiteral counts non-overlapping occurrences of a folded
// pure-literal pattern (see pureLiteral) with an ASCII case-folding byte
// scan — the same leftmost scan-and-skip order as the regexp engine's
// non-overlapping FindAll, so the counts are identical, without the
// per-match position slice the engine allocates.
func countFoldedLiteral(sample, lit []byte) int {
	n := 0
	for i := 0; i+len(lit) <= len(sample); {
		if foldedEqAt(sample, i, lit) {
			n++
			i += len(lit)
			continue
		}
		i++
	}
	return n
}

func foldedEqAt(sample []byte, i int, lit []byte) bool {
	for k, want := range lit {
		c := sample[i+k]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != want {
			return false
		}
	}
	return true
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// lookupWord resolves a token's feature columns. Tokens are pure ASCII
// word bytes, so ASCII folding equals the Unicode lowering the word index
// was built with; all-lowercase tokens (the normalized-sample norm) index
// the map directly without copying.
func (e *Extractor) lookupWord(tok []byte, sc *Scratch) []int {
	lower := true
	for _, c := range tok {
		if c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return e.words[string(tok)]
	}
	t := sc.tok[:0]
	for _, c := range tok {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		t = append(t, c)
	}
	sc.tok = t
	return e.words[string(t)]
}

// SparseMatrix extracts all samples into an n×d CSR count matrix, storing
// only the features that fired — the pipeline's training backing.
func (e *Extractor) SparseMatrix(samples []string) (*matrix.Sparse, error) {
	b := matrix.NewSparseBuilder(len(e.set.Features))
	for _, s := range samples {
		cols, vals := e.SparseVector(s)
		if err := b.AppendSparse(cols, vals); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// PruneUnobserved drops features whose column is zero in every sample of m
// (the 477 → 159 step). It returns the reduced matrix (same backing), the
// reduced set, and the kept column indices into the original set.
func PruneUnobserved(m matrix.RowMatrix, set Set) (matrix.RowMatrix, Set, []int, error) {
	if m.Cols() != set.Len() {
		return nil, Set{}, nil, fmt.Errorf("feature: matrix has %d columns, set %d", m.Cols(), set.Len())
	}
	observed := make([]bool, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		cols, _ := m.RowNonZeros(i)
		for _, j := range cols {
			observed[j] = true
		}
	}
	var kept []int
	for j, ok := range observed {
		if ok {
			kept = append(kept, j)
		}
	}
	sub, err := m.SelectCols(kept)
	if err != nil {
		return nil, Set{}, nil, err
	}
	reduced, err := set.Select(kept)
	if err != nil {
		return nil, Set{}, nil, err
	}
	return sub, reduced, kept, nil
}

// Dedupe collapses identical samples, returning the unique samples with
// their multiplicities. Order of first appearance is preserved. Running the
// pipeline on deduplicated samples with weights is equivalent to running it
// on the full corpus.
func Dedupe(samples []string) (unique []string, weights []float64) {
	idx := make(map[string]int, len(samples))
	for _, s := range samples {
		if k, ok := idx[s]; ok {
			weights[k]++
			continue
		}
		idx[s] = len(unique)
		unique = append(unique, s)
		weights = append(weights, 1)
	}
	return unique, weights
}

// PruneDuplicateColumns removes features whose observed count column is
// identical to an earlier feature's — the "overlapping features" the paper
// removes on the way from 477 candidates to 159 (two regexes that always
// fire the same number of times on the training corpus carry no independent
// signal). It returns the reduced matrix (same backing), the reduced set,
// and the kept column indices. Columns are compared by their nonzero
// (row, value) profile, accumulated in one O(nnz) pass.
func PruneDuplicateColumns(m matrix.RowMatrix, set Set) (matrix.RowMatrix, Set, []int, error) {
	if m.Cols() != set.Len() {
		return nil, Set{}, nil, fmt.Errorf("feature: matrix has %d columns, set %d", m.Cols(), set.Len())
	}
	sigs := make([][]byte, m.Cols())
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.RowNonZeros(i)
		for k, j := range cols {
			buf := strconv.AppendInt(sigs[j], int64(i), 10)
			buf = append(buf, ':')
			buf = strconv.AppendFloat(buf, vals[k], 'g', -1, 64)
			sigs[j] = append(buf, ',')
		}
	}
	seen := make(map[string]bool, m.Cols())
	var kept []int
	for j := 0; j < m.Cols(); j++ {
		k := string(sigs[j])
		if seen[k] {
			continue
		}
		seen[k] = true
		kept = append(kept, j)
	}
	sub, err := m.SelectCols(kept)
	if err != nil {
		return nil, Set{}, nil, err
	}
	reduced, err := set.Select(kept)
	if err != nil {
		return nil, Set{}, nil, err
	}
	return sub, reduced, kept, nil
}
