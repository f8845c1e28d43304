package feature

import (
	"strings"
	"testing"
	"testing/quick"

	"psigene/internal/matrix"
	"psigene/internal/normalize"
)

func newCatalogExtractor(t *testing.T) *Extractor {
	t.Helper()
	e, err := NewExtractor(Catalog())
	if err != nil {
		t.Fatalf("NewExtractor(Catalog()): %v", err)
	}
	return e
}

// countVector scatters SparseVector into a full-width count vector, so
// tests can look counts up by column.
func countVector(e *Extractor, sample string) []float64 {
	v := make([]float64, e.set.Len())
	cols, vals := e.SparseVector(sample)
	for k, j := range cols {
		v[j] = vals[k]
	}
	return v
}

func TestCatalogCensus(t *testing.T) {
	// The paper starts from 477 candidate features (§I, §II-B) across the
	// three Table II sources.
	s := Catalog()
	if got := s.Len(); got != 477 {
		t.Fatalf("catalog has %d features, want 477", got)
	}
	c := s.CountBySource()
	if c[SourceReservedWord] < 200 {
		t.Fatalf("reserved words: %d, want the MySQL 5.5 list (>=200)", c[SourceReservedWord])
	}
	if c[SourceSignature] == 0 || c[SourceReference] == 0 {
		t.Fatalf("census by source: %v — every source must contribute", c)
	}
	if c[SourceReservedWord]+c[SourceSignature]+c[SourceReference] != 477 {
		t.Fatalf("census does not add up: %v", c)
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range Catalog().Features {
		if seen[f.Name] {
			t.Fatalf("duplicate feature name %q", f.Name)
		}
		seen[f.Name] = true
	}
}

func TestSourceString(t *testing.T) {
	if SourceReservedWord.String() == "" || Source(99).String() == "" {
		t.Fatal("Source.String must render all values")
	}
}

func TestVectorCountsWords(t *testing.T) {
	e := newCatalogExtractor(t)
	set := e.set
	col := map[string]int{}
	for j, f := range set.Features {
		col[f.Name] = j
	}
	v := countVector(e, "id=1 union select password from users where user_id=1 or 1=1")
	if v[col["union"]] != 1 {
		t.Fatalf("union count=%v, want 1", v[col["union"]])
	}
	if v[col["select"]] != 1 {
		t.Fatalf("select count=%v", v[col["select"]])
	}
	if v[col["or"]] != 1 {
		t.Fatalf("or count=%v", v[col["or"]])
	}
	// "password" and "users" are not reserved words and must not count.
	if v[col["from"]] != 1 || v[col["where"]] != 1 {
		t.Fatal("from/where must count exactly once")
	}
}

func TestVectorWordBoundaries(t *testing.T) {
	e := newCatalogExtractor(t)
	col := map[string]int{}
	for j, f := range e.set.Features {
		col[f.Name] = j
	}
	// "union" embedded in a larger token must not count.
	v := countVector(e, "name=reunionparty&status=selected")
	if v[col["union"]] != 0 {
		t.Fatalf("embedded 'union' counted: %v", v[col["union"]])
	}
	if v[col["select"]] != 0 {
		t.Fatalf("embedded 'select' counted: %v", v[col["select"]])
	}
}

func TestVectorCountsRegexMatches(t *testing.T) {
	e := newCatalogExtractor(t)
	col := map[string]int{}
	for j, f := range e.set.Features {
		col[f.Name] = j
	}
	v := countVector(e, "a='x' or 'y'='y' -- comment")
	if v[col[`'`]] < 4 {
		t.Fatalf("quote count=%v, want >=4", v[col[`'`]])
	}
	if v[col[`--`]] != 1 {
		t.Fatalf("comment count=%v", v[col[`--`]])
	}
	// Case-insensitive matching on raw (non-normalized) text.
	v = countVector(e, "1 UNION SELECT 2")
	if v[col[`union\s+select`]] != 1 {
		t.Fatalf("case-insensitive union select=%v", v[col[`union\s+select`]])
	}
}

func TestVectorPaperExample(t *testing.T) {
	// The §IV example: a sample with two char( occurrences.
	e := newCatalogExtractor(t)
	col := map[string]int{}
	for j, f := range e.set.Features {
		col[f.Name] = j
	}
	sample := normalize.Normalize("?id=-1+union+select+1,2,3,4,concat(database(),char(58),user(),char(58),version()),6,7")
	v := countVector(e, sample)
	if got := v[col["char"]]; got != 2 {
		t.Fatalf("char word count=%v, want 2", got)
	}
	if got := v[col[`ch(a)?r\s*?\(\s*?\d`]]; got != 2 {
		t.Fatalf("ch(a)?r( pattern count=%v, want 2", got)
	}
	if v[col[`information_schema`]] != 0 {
		t.Fatal("information_schema must not match this sample")
	}
}

func TestNewExtractorErrors(t *testing.T) {
	cases := []Set{
		{Features: []Feature{{Name: "", Word: "x"}}},
		{Features: []Feature{{Name: "a", Word: "x"}, {Name: "a", Word: "y"}}},
		{Features: []Feature{{Name: "a", Word: "x", Pattern: "y"}}},
		{Features: []Feature{{Name: "a"}}},
		{Features: []Feature{{Name: "a", Pattern: "("}}},
	}
	for i, s := range cases {
		if _, err := NewExtractor(s); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

func TestMatrixShape(t *testing.T) {
	e := newCatalogExtractor(t)
	samples := []string{"id=1", "id=1' or 1=1 --", "union select"}
	m, err := e.SparseMatrix(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 477 {
		t.Fatalf("matrix %dx%d", m.Rows(), m.Cols())
	}
}

func TestPruneUnobserved(t *testing.T) {
	set := Set{Features: []Feature{
		{Name: "w1", Word: "select"},
		{Name: "w2", Word: "zerofill"},
		{Name: "p1", Pattern: `--`},
	}}
	e, err := NewExtractor(set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SparseMatrix([]string{"select 1 --", "select 2"})
	if err != nil {
		t.Fatal(err)
	}
	pm, ps, kept, err := PruneUnobserved(m, set)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 || pm.Cols() != 2 {
		t.Fatalf("pruned to %d features, want 2", ps.Len())
	}
	if len(kept) != 2 || kept[0] != 0 || kept[1] != 2 {
		t.Fatalf("kept=%v, want [0 2]", kept)
	}
	for _, f := range ps.Features {
		if f.Name == "w2" {
			t.Fatal("unobserved feature w2 must be pruned")
		}
	}
}

func TestPruneUnobservedDimensionMismatch(t *testing.T) {
	m := matrix.MustNew(1, 3)
	if _, _, _, err := PruneUnobserved(m, Set{}); err == nil {
		t.Fatal("want error")
	}
}

func TestSetSelect(t *testing.T) {
	s := Set{Features: []Feature{{Name: "a", Word: "a"}, {Name: "b", Word: "b"}}}
	sub, err := s.Select([]int{1})
	if err != nil || sub.Len() != 1 || sub.Features[0].Name != "b" {
		t.Fatalf("Select: %v %+v", err, sub)
	}
	if _, err := s.Select([]int{2}); err == nil {
		t.Fatal("out of range: want error")
	}
}

func TestDedupe(t *testing.T) {
	u, w := Dedupe([]string{"a", "b", "a", "a", "c", "b"})
	if len(u) != 3 || u[0] != "a" || u[1] != "b" || u[2] != "c" {
		t.Fatalf("unique=%v", u)
	}
	if w[0] != 3 || w[1] != 2 || w[2] != 1 {
		t.Fatalf("weights=%v", w)
	}
}

func TestDedupeProperty(t *testing.T) {
	// Total weight equals input length; unique entries are distinct.
	f := func(xs []string) bool {
		u, w := Dedupe(xs)
		var total float64
		seen := map[string]bool{}
		for i, s := range u {
			if seen[s] {
				return false
			}
			seen[s] = true
			total += w[i]
		}
		return int(total) == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryizeInPlace(t *testing.T) {
	set := Set{Features: []Feature{
		{Name: "w", Word: "select"},
		{Name: "z", Word: "zerofill"},
		{Name: "p", Pattern: `--`},
	}}
	e, err := NewExtractor(set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SparseMatrix([]string{"select select select --", "-- -- --"})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3 || m.At(1, 2) != 3 {
		t.Fatalf("counts before clamp: (0,0)=%v (1,2)=%v, want 3", m.At(0, 0), m.At(1, 2))
	}
	m.Binaryize()
	want := [][]float64{{1, 0, 1}, {0, 0, 1}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("cell (%d,%d)=%v", i, j, m.At(i, j))
			}
		}
	}
}

func TestAttackVsBenignSeparation(t *testing.T) {
	// Sanity: a classic injection lights up far more features than a benign
	// query with SQL-ish English words.
	e := newCatalogExtractor(t)
	attack := normalize.Normalize("id=1%27%20UNION%20SELECT%20user,password%20FROM%20mysql.user%20WHERE%201=1--")
	benign := normalize.Normalize("q=union+college+course+selection&page=2")
	nz := func(v []float64) int {
		var n int
		for _, x := range v {
			if x != 0 {
				n++
			}
		}
		return n
	}
	na, nb := nz(countVector(e, attack)), nz(countVector(e, benign))
	if na <= nb {
		t.Fatalf("attack lights %d features, benign %d — attack must dominate", na, nb)
	}
}

func TestVectorDeterministic(t *testing.T) {
	e := newCatalogExtractor(t)
	s := "id=1' or '1'='1"
	a, b := countVector(e, s), countVector(e, s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Vector must be deterministic")
		}
	}
}

func TestCatalogPatternsMatchSomething(t *testing.T) {
	// Smoke check: a broad pile of known attack payloads should exercise a
	// sizable share of the signature/reference patterns.
	e := newCatalogExtractor(t)
	payloads := []string{
		"id=1' or 1=1 --",
		"id=1 union all select null,null,null from dual",
		"id=1; drop table users; --",
		"id=1 and sleep(5)",
		"id=1 and benchmark(5000000,md5('a'))",
		"id=extractvalue(1,concat(0x7e,version()))",
		"id=1' and updatexml(1,concat(0x7e,(select user())),1)--",
		"q=1 and substring(@@version,1,1)=5",
		"u=admin'-- &p=x",
		"id=-1 union select 1,concat(database(),char(58),user()),3 from information_schema.tables",
		"id=1'; waitfor delay '0:0:5'--",
		"id=(select count(*) from mysql.user)",
		"id=1 into outfile '/tmp/x'",
		"id=load_file('/etc/passwd')",
		"id=1 or 'a'='a",
		"s=%' or '1'='1",
		"id=0x414243",
		"id=1 group by x having 1=1",
		"id=1 procedure analyse()",
		"id=if(1=1,sleep(1),0)",
	}
	hit := make(map[int]bool)
	for _, p := range payloads {
		v := countVector(e, strings.ToLower(p))
		for j, x := range v {
			if x != 0 {
				hit[j] = true
			}
		}
	}
	var sigTotal, sigHit int
	for j, f := range e.set.Features {
		if f.Source == SourceSignature || f.Source == SourceReference {
			sigTotal++
			if hit[j] {
				sigHit++
			}
		}
	}
	if frac := float64(sigHit) / float64(sigTotal); frac < 0.25 {
		t.Fatalf("only %.0f%% of non-word patterns fire on the smoke corpus (%d/%d)", frac*100, sigHit, sigTotal)
	}
}

func TestPruneDuplicateColumns(t *testing.T) {
	set := Set{Features: []Feature{
		{Name: "a", Word: "select"},
		{Name: "b", Pattern: `select`}, // same counts as "a" on these samples
		{Name: "c", Pattern: `--`},
	}}
	e, err := NewExtractor(set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.SparseMatrix([]string{"select 1 --", "select select"})
	if err != nil {
		t.Fatal(err)
	}
	pm, ps, kept, err := PruneDuplicateColumns(m, set)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 2 || pm.Cols() != 2 {
		t.Fatalf("pruned to %d features, want 2 (a and c)", ps.Len())
	}
	if kept[0] != 0 || kept[1] != 2 {
		t.Fatalf("kept=%v, want [0 2] (first duplicate wins)", kept)
	}
}

func TestPruneDuplicateColumnsMismatch(t *testing.T) {
	m := matrix.MustNew(1, 3)
	if _, _, _, err := PruneDuplicateColumns(m, Set{}); err == nil {
		t.Fatal("want error")
	}
}
