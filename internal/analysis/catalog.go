package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"

	"psigene/internal/core"
	"psigene/internal/feature"
)

// Catalog check names.
const (
	CheckDupFeature    = "dupfeature"    // exact-duplicate pattern or word
	CheckBadPattern    = "badpattern"    // pattern fails to compile under (?i)
	CheckCaseClass     = "caseclass"     // character class lists both letter cases under (?i)
	CheckNeverMatch    = "nevermatch"    // pattern fires on no probe-corpus sample
	CheckSubsumed      = "subsumed"      // two features are corpus-indistinguishable
	CheckDeadSig       = "deadsig"       // signature whose weights zero out every feature
	CheckOpaquePattern = "opaquepattern" // pattern defeats the serving literal prefilter
)

// Anchors maps feature names to their source positions in the catalog
// declarations, so catalog diagnostics land on the literal that defines
// the flawed feature and lint:ignore comments there can suppress them. A
// name occurring more than once keeps every occurrence in declaration
// order.
type Anchors struct {
	pos map[string][]token.Position
}

// catalogVarNames are the three Table II source lists in internal/feature.
var catalogVarNames = map[string]bool{
	"mysqlReservedWords": true,
	"signatureFragments": true,
	"referencePatterns":  true,
}

// FeatureAnchors scans the feature package's catalog declarations and
// records the position of every string literal, keyed by its unquoted
// value. Returns empty (never nil) anchors when the package or the
// declarations are absent.
func FeatureAnchors(prog *Program) *Anchors {
	a := &Anchors{pos: make(map[string][]token.Position)}
	pkg := prog.Package("internal/feature")
	if pkg == nil {
		return a
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || !catalogVarNames[vs.Names[0].Name] {
					continue
				}
				for _, v := range vs.Values {
					cl, ok := v.(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, elt := range cl.Elts {
						lit, ok := elt.(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						s, err := strconv.Unquote(lit.Value)
						if err != nil {
							continue
						}
						a.pos[s] = append(a.pos[s], prog.Fset.Position(lit.Pos()))
					}
				}
			}
		}
	}
	return a
}

// at returns the position of the k-th occurrence of a feature's literal.
func (a *Anchors) at(name string, k int) token.Position {
	if a == nil {
		return token.Position{}
	}
	ps := a.pos[name]
	if k < len(ps) {
		return ps[k]
	}
	if len(ps) > 0 {
		return ps[len(ps)-1]
	}
	return token.Position{}
}

// featureLiteral returns the catalog literal a feature was declared as:
// the word for token features, the pattern for regex features.
func featureLiteral(f feature.Feature) string {
	if f.Word != "" {
		return f.Word
	}
	return f.Pattern
}

// CheckCatalog runs every catalog analyzer over the feature set: exact
// duplicates, non-compiling patterns, redundant case classes, and — using
// the probe corpus — never-matching patterns and corpus-indistinguishable
// feature pairs. parallelism feeds the corpus extraction worker pool (0 =
// GOMAXPROCS).
func CheckCatalog(set feature.Set, corpus []string, anchors *Anchors, parallelism int) []Diagnostic {
	var out []Diagnostic
	occ := make(map[string]int) // literal -> occurrences seen so far
	firstAt := make(map[string]token.Position)
	posOf := make([]token.Position, len(set.Features))
	valid := make([]bool, len(set.Features))

	for j, f := range set.Features {
		lit := featureLiteral(f)
		k := occ[lit]
		occ[lit]++
		posOf[j] = anchors.at(lit, k)
		valid[j] = true
		if k > 0 {
			valid[j] = false
			out = append(out, Diagnostic{Check: CheckDupFeature, Pos: posOf[j], Message: fmt.Sprintf(
				"feature %q duplicates an earlier catalog entry (first at %s)", f.Name, positionOrUnknown(firstAt[lit]))})
			continue
		}
		firstAt[lit] = posOf[j]
		if f.Pattern == "" {
			continue
		}
		if _, err := regexp.Compile("(?i)" + f.Pattern); err != nil {
			valid[j] = false
			out = append(out, Diagnostic{Check: CheckBadPattern, Pos: posOf[j], Message: fmt.Sprintf(
				"pattern %q does not compile under (?i): %v", f.Pattern, err)})
			continue
		}
		if cls := redundantCaseClass(f.Pattern); cls != "" {
			out = append(out, Diagnostic{Check: CheckCaseClass, Pos: posOf[j], Message: fmt.Sprintf(
				"character class %q lists both letter cases; the extractor compiles every pattern with (?i), so one case is redundant", cls)})
		}
		if _, ok := feature.RequiredLiterals(f.Pattern); !ok {
			out = append(out, Diagnostic{Check: CheckOpaquePattern, Pos: posOf[j], Message: fmt.Sprintf(
				"pattern %q has no derivable required-literal set, so the serving prefilter must run it on every sample; anchor it on a literal or suppress with a reason", f.Pattern)})
		}
	}

	out = append(out, checkCorpusFlaws(set, corpus, posOf, valid)...)
	SortDiagnostics(out)
	return out
}

// checkCorpusFlaws extracts the probe corpus once and derives the two
// corpus-driven flaw classes: never-matching patterns and pairs of
// features whose match columns are indistinguishable (identical fire
// sets — each subsumes the other on every probe sample).
func checkCorpusFlaws(set feature.Set, corpus []string, posOf []token.Position, valid []bool) []Diagnostic {
	if len(corpus) == 0 {
		return nil
	}
	var keep []int
	probe := feature.Set{}
	for j, ok := range valid {
		if ok {
			keep = append(keep, j)
			probe.Features = append(probe.Features, set.Features[j])
		}
	}
	ex, err := feature.NewExtractor(probe)
	if err != nil {
		// Duplicate names with distinct definitions (a word equal to a
		// pattern string) cannot be profiled; report and bail.
		return []Diagnostic{{Check: CheckBadPattern, Message: fmt.Sprintf(
			"catalog cannot be compiled for corpus checks: %v", err)}}
	}
	m, err := ex.SparseMatrixParallel(corpus, 0)
	if err != nil {
		return []Diagnostic{{Check: CheckBadPattern, Message: fmt.Sprintf(
			"probe-corpus extraction failed: %v", err)}}
	}

	// Column profiles in one O(nnz) pass: the fire set (rows where the
	// feature matched) and the full count column (rows plus counts).
	fireSig := make([][]byte, len(keep))
	countSig := make([][]byte, len(keep))
	fires := make([]int, len(keep))
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.RowNonZeros(i)
		for k, c := range cols {
			fireSig[c] = strconv.AppendInt(fireSig[c], int64(i), 10)
			fireSig[c] = append(fireSig[c], ',')
			countSig[c] = strconv.AppendInt(countSig[c], int64(i), 10)
			countSig[c] = append(countSig[c], ':')
			countSig[c] = strconv.AppendFloat(countSig[c], vals[k], 'g', -1, 64)
			countSig[c] = append(countSig[c], ',')
			fires[c]++
		}
	}

	var out []Diagnostic
	for c, j := range keep {
		if set.Features[j].Pattern != "" && fires[c] == 0 {
			out = append(out, Diagnostic{Check: CheckNeverMatch, Pos: posOf[j], Message: fmt.Sprintf(
				"pattern %q matches none of the %d probe-corpus samples", set.Features[j].Name, len(corpus))})
		}
	}

	// Subsumption is a statement about regexes (word features are the
	// paper's fixed reserved-word census, pruned at train time), so only
	// pattern columns join the fire-set groups.
	groups := make(map[string]int) // fire-set signature -> first column
	for c, j := range keep {
		if fires[c] == 0 || set.Features[j].Pattern == "" {
			continue
		}
		key := string(fireSig[c])
		first, ok := groups[key]
		if !ok {
			groups[key] = c
			continue
		}
		counts := "match counts differ, so the count features still separate"
		if string(countSig[c]) == string(countSig[first]) {
			counts = "with identical match counts — the columns are fully redundant"
		}
		out = append(out, Diagnostic{Check: CheckSubsumed, Pos: posOf[j], Message: fmt.Sprintf(
			"feature %q is corpus-indistinguishable from %q: each subsumes the other on all %d probe samples they match (%s)",
			set.Features[j].Name, set.Features[keep[first]].Name, fires[c], counts)})
	}
	return out
}

// redundantCaseClass scans a pattern's character classes and returns the
// first class that contains both an a-z and an A-Z range, or both cases
// of the same literal letter — redundant given the extractor's (?i)
// compilation. Escapes are skipped; returns "" when clean.
func redundantCaseClass(pattern string) string {
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++ // skip the escaped byte
		case '[':
			end := classEnd(pattern, i)
			if end < 0 {
				return "" // malformed; the compile check reports it
			}
			if classHasBothCases(pattern[i : end+1]) {
				return pattern[i : end+1]
			}
			i = end
		}
	}
	return ""
}

// classEnd returns the index of the ']' closing the class opened at
// pattern[start] == '[', or -1.
func classEnd(pattern string, start int) int {
	i := start + 1
	if i < len(pattern) && pattern[i] == '^' {
		i++
	}
	if i < len(pattern) && pattern[i] == ']' {
		i++ // a leading ']' is a literal member
	}
	for ; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case ']':
			return i
		}
	}
	return -1
}

// classHasBothCases reports whether a [...] class covers some letter in
// both cases, via literal members or ranges.
func classHasBothCases(class string) bool {
	var lower, upper [26]bool
	body := class[1 : len(class)-1]
	if len(body) > 0 && body[0] == '^' {
		body = body[1:]
	}
	add := func(lo, hi byte) {
		for c := lo; c >= 'a' && c <= 'z' && c <= hi; c++ {
			lower[c-'a'] = true
		}
		for c := lo; c >= 'A' && c <= 'Z' && c <= hi; c++ {
			upper[c-'A'] = true
		}
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' {
			i++
			continue
		}
		if i+2 < len(body) && body[i+1] == '-' && body[i+2] != ']' && body[i+2] != '\\' {
			add(c, body[i+2])
			i += 2
			continue
		}
		add(c, c)
	}
	for i := range lower {
		if lower[i] && upper[i] {
			return true
		}
	}
	return false
}

// CheckSignatures reports dead signatures in a trained model: a logistic
// model whose every weight is zero cannot discriminate — its probability
// is constant in the input, so the signature either never fires or fires
// on everything. origin labels the diagnostics (e.g. the model file path).
func CheckSignatures(m *core.Model, origin string) []Diagnostic {
	var out []Diagnostic
	pos := token.Position{Filename: origin}
	thresholds := m.Thresholds()
	for i, s := range m.Signatures {
		switch {
		case s.Model == nil || len(s.Features) == 0:
			out = append(out, Diagnostic{Check: CheckDeadSig, Pos: pos, Message: fmt.Sprintf(
				"signature %d has no features left after pruning: it can never discriminate", s.ID)})
		case allZero(s.Model.Weights):
			verdict := "never fires"
			if constantProbability(s) >= thresholds[i] {
				verdict = "fires on every request"
			}
			out = append(out, Diagnostic{Check: CheckDeadSig, Pos: pos, Message: fmt.Sprintf(
				"signature %d is dead: all %d LR weights are zero, so p is constant and the signature %s", s.ID, len(s.Model.Weights), verdict)})
		}
	}
	return out
}

func allZero(ws []float64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return len(ws) > 0
}

// constantProbability evaluates a zero-weight signature's (constant)
// probability.
func constantProbability(s *core.Signature) float64 {
	return s.Model.Predict(make([]float64, len(s.Model.Weights)))
}

func positionOrUnknown(p token.Position) string {
	if !p.IsValid() {
		return "earlier entry"
	}
	return p.String()
}
