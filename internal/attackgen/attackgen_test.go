package attackgen

import (
	"math/rand"
	"strings"
	"testing"

	"psigene/internal/feature"
	"psigene/internal/normalize"
)

func allProfiles() []Profile {
	return []Profile{CrawlProfile(), SQLMapProfile(), ArachniProfile(), VegaProfile()}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, p := range allProfiles() {
		a := NewGenerator(p, 42).Samples(50)
		b := NewGenerator(p, 42).Samples(50)
		for i := range a {
			if a[i].Request.RawQuery != b[i].Request.RawQuery || a[i].Family != b[i].Family {
				t.Fatalf("%s: sample %d differs across identical seeds", p.Name, i)
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p := CrawlProfile()
	a := NewGenerator(p, 1).Samples(20)
	b := NewGenerator(p, 2).Samples(20)
	same := 0
	for i := range a {
		if a[i].Request.RawQuery == b[i].Request.RawQuery {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestSamplesAreMaliciousAndTagged(t *testing.T) {
	for _, p := range allProfiles() {
		for _, s := range NewGenerator(p, 7).Samples(30) {
			if !s.Request.Malicious {
				t.Fatalf("%s: sample not marked malicious", p.Name)
			}
			if s.Request.Tool != p.Name {
				t.Fatalf("tool tag %q, want %q", s.Request.Tool, p.Name)
			}
			if s.Request.RawQuery == "" {
				t.Fatalf("%s: empty query", p.Name)
			}
		}
	}
}

func TestFamilyMixMatchesWeights(t *testing.T) {
	p := CrawlProfile()
	g := NewGenerator(p, 3)
	counts := map[Family]int{}
	const total = 6000
	for i := 0; i < total; i++ {
		counts[g.Sample().Family]++
	}
	for _, f := range Families {
		want := p.FamilyWeights[f]
		got := float64(counts[f]) / total
		if want > 0 && (got < want*0.6 || got > want*1.5) {
			t.Fatalf("family %s frequency %.3f, want ~%.3f", f, got, want)
		}
	}
}

func TestEveryFamilyStringIsNamed(t *testing.T) {
	for _, f := range Families {
		if strings.HasPrefix(f.String(), "Family(") {
			t.Fatalf("family %d has no name", int(f))
		}
	}
	if !strings.HasPrefix(Family(99).String(), "Family(") {
		t.Fatal("unknown family must fall back to numeric form")
	}
}

func TestPayloadsLightUpCatalogFeatures(t *testing.T) {
	// Every generated sample must trigger at least one catalog feature once
	// normalized — otherwise it could never be clustered or detected.
	ex, err := feature.NewExtractor(feature.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allProfiles() {
		g := NewGenerator(p, 11)
		for i := 0; i < 200; i++ {
			s := g.Sample()
			if cols, _ := ex.SparseVector(normalize.Normalize(s.Request.Payload())); len(cols) == 0 {
				t.Fatalf("%s sample %q lights zero features", p.Name, s.Request.RawQuery)
			}
		}
	}
}

func TestToolsProduceDistinctCorpora(t *testing.T) {
	// The test tools must generate variants, not replicas of the crawl
	// corpus: normalized payload overlap should be low.
	crawlSet := map[string]bool{}
	for _, s := range NewGenerator(CrawlProfile(), 1).Samples(2000) {
		crawlSet[normalize.Normalize(s.Request.Payload())] = true
	}
	for _, p := range []Profile{SQLMapProfile(), ArachniProfile(), VegaProfile()} {
		overlap, total := 0, 500
		for _, s := range NewGenerator(p, 2).Samples(total) {
			if crawlSet[normalize.Normalize(s.Request.Payload())] {
				overlap++
			}
		}
		if frac := float64(overlap) / float64(total); frac > 0.30 {
			t.Fatalf("%s overlaps crawl corpus at %.0f%% — test sets must be variants", p.Name, frac*100)
		}
	}
}

func TestTamperHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := spaceToComment("a b"); got != "a/**/b" {
		t.Fatalf("spaceToComment=%q", got)
	}
	if got := spaceToPlus("a b c"); got != "a+b+c" {
		t.Fatalf("spaceToPlus=%q", got)
	}
	enc := urlEncode("a'b c", false)
	if !strings.Contains(enc, "%27") || !strings.Contains(enc, "%20") {
		t.Fatalf("urlEncode=%q", enc)
	}
	full := urlEncode("ab1", true)
	if full != "ab1" {
		t.Fatalf("full urlEncode keeps alphanumerics: %q", full)
	}
	rc := randomCase(rng, "abcdefghijklmnop")
	if rc == "abcdefghijklmnop" {
		// Statistically near-impossible with 16 letters.
		t.Fatal("randomCase changed nothing")
	}
	if strings.ToLower(rc) != "abcdefghijklmnop" {
		t.Fatalf("randomCase altered letters: %q", rc)
	}
}

func TestTampersPreserveDecodedPayload(t *testing.T) {
	// URL-encoding tampers must decode back to the same lowercase payload.
	g := NewGenerator(CrawlProfile(), 5)
	for i := 0; i < 300; i++ {
		fam := g.profile.pickFamily(g.rng)
		raw := g.buildPayload(fam)
		tampered := g.applyTampers(raw)
		normRaw := normalize.Normalize(strings.ReplaceAll(raw, " ", "+"))
		normTampered := normalize.Normalize(tampered)
		// Comment obfuscation legitimately changes the string; skip those.
		if strings.Contains(normTampered, "/**/") && !strings.Contains(normRaw, "/**/") {
			continue
		}
		if normRaw != normTampered {
			t.Fatalf("tamper changed payload semantics:\nraw:      %q\ntampered: %q\nnorm raw: %q\nnorm tam: %q",
				raw, tampered, normRaw, normTampered)
		}
	}
}

func TestPickFamilyFallback(t *testing.T) {
	p := Profile{Name: "x", FamilyWeights: map[Family]float64{}}
	rng := rand.New(rand.NewSource(1))
	if f := p.pickFamily(rng); f != FamilyTautology {
		t.Fatalf("empty weights should fall back to tautology, got %v", f)
	}
}

func TestRequestsHelper(t *testing.T) {
	rs := NewGenerator(SQLMapProfile(), 9).Requests(10)
	if len(rs) != 10 {
		t.Fatalf("got %d requests", len(rs))
	}
	for _, r := range rs {
		if !r.Malicious || r.Tool != "sqlmap" {
			t.Fatalf("bad request %+v", r)
		}
	}
}
