package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"psigene/internal/attackgen"
	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/normalize"
	"psigene/internal/traffic"
)

// fastpathProbes is the probe mix the prefilter parity tests replay:
// attack traffic from two tool profiles plus a benign majority, so both
// the gated and the always-run regex sets are exercised.
func fastpathProbes() []httpx.Request {
	probes := attackgen.NewGenerator(attackgen.SQLMapProfile(), 31).Requests(150)
	probes = append(probes, attackgen.NewGenerator(attackgen.ArachniProfile(), 32).Requests(150)...)
	return append(probes, traffic.NewGenerator(33).Requests(500)...)
}

// TestPrefilterTrainParity checks the one place the literal prefilter
// touches training: feature extraction. Over the same normalized, deduped
// corpus a gated and an ungated catalog extractor must build identical
// CSR matrices. The prefilter only decides which regexes run, and every
// regex it skips is one that cannot match, so everything trained from the
// matrix is equal to the last bit.
func TestPrefilterTrainParity(t *testing.T) {
	reqs := append(
		attackgen.NewGenerator(attackgen.CrawlProfile(), 41).Requests(600),
		traffic.NewGenerator(42).Requests(800)...,
	)
	norm := make([]string, len(reqs))
	for i, r := range reqs {
		norm[i] = normalize.Normalize(r.Payload())
	}
	uniq, _ := feature.Dedupe(norm)

	gated, err := feature.NewExtractor(feature.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if gated.PrefilterStats().Gated == 0 {
		t.Fatal("the catalog extractor gates no pattern")
	}
	plain, err := feature.NewUngatedExtractor(feature.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if plain.PrefilterStats().Gated != 0 {
		t.Fatal("the ungated extractor gates patterns")
	}

	want, err := plain.SparseMatrixParallel(uniq, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gated.SparseMatrixParallel(uniq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("gated and ungated extractors built different training matrices")
	}
}

// ungatedCopy returns m serving through the ungated reference extractor:
// the same signatures and thresholds, every regex run on every request.
func ungatedCopy(t *testing.T, m *Model) *Model {
	t.Helper()
	ex, err := feature.NewUngatedExtractor(m.Features)
	if err != nil {
		t.Fatal(err)
	}
	ref := *m
	ref.extractor = ex
	return &ref
}

// TestPrefilterServeParity pins every serving product of a trained model
// — sparse vectors, probabilities, verdicts — to be bit-identical with
// the same model served through the ungated reference extractor.
func TestPrefilterServeParity(t *testing.T) {
	m := smallModel(t)
	ref := ungatedCopy(t, m)
	for _, req := range fastpathProbes() {
		onCols, onVals := m.SparseVector(req)
		onProbs := m.Probabilities(req)
		onVerdict := m.Inspect(req)

		offCols, offVals := ref.SparseVector(req)
		offProbs := ref.Probabilities(req)
		offVerdict := ref.Inspect(req)

		if !reflect.DeepEqual(onCols, offCols) || !reflect.DeepEqual(onVals, offVals) {
			t.Fatalf("sparse vectors differ on %q:\non  %v %v\noff %v %v",
				req.Payload(), onCols, onVals, offCols, offVals)
		}
		if !reflect.DeepEqual(onProbs, offProbs) {
			t.Fatalf("probabilities differ on %q: on %v, off %v", req.Payload(), onProbs, offProbs)
		}
		if !reflect.DeepEqual(onVerdict, offVerdict) {
			t.Fatalf("verdicts differ on %q: on %+v, off %+v", req.Payload(), onVerdict, offVerdict)
		}
	}
}

// TestPrefilterServeParityQuick drives the gated/ungated verdict parity over
// random byte strings — the same adversarial idiom the normalize and CSR
// parity suites use. Random bytes stress the unicode folding edges of the
// literal scanner (ſ, Kelvin sign, invalid UTF-8) far harder than
// generated traffic does.
func TestPrefilterServeParityQuick(t *testing.T) {
	m := smallModel(t)
	ref := ungatedCopy(t, m)
	f := func(raw []byte, body []byte) bool {
		req := httpx.Request{RawQuery: string(raw), Body: string(body)}
		return reflect.DeepEqual(m.Inspect(req), ref.Inspect(req))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionMatchesInspect pins Session.Inspect to Model.Inspect verdict
// for verdict: a checked-out session is a pure scratch-reuse optimization.
func TestSessionMatchesInspect(t *testing.T) {
	m := smallModel(t)
	sess := m.NewSession()
	defer sess.Close()
	for _, req := range fastpathProbes() {
		want := m.Inspect(req)
		got := sess.Inspect(req)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("session verdict differs on %q: model %+v, session %+v", req.Payload(), want, got)
		}
	}
}

// TestInspectBenignZeroAlloc pins the tentpole allocation contract. All
// state the fast path owns — payload view, normalization buffers, feature
// scratch, signature walk — is pooled, so the only possible allocation on
// a non-alerting request is the 2-int match-position slice Go's regexp
// engine allocates internally per successful match of a non-literal
// pattern (pure-literal features are counted engine-free). The test pins
// both halves: requests whose firing features are all literal-counted
// inspect with exactly zero allocations, and the full benign mix stays
// under the engine's per-match bound.
func TestInspectBenignZeroAlloc(t *testing.T) {
	m := smallModel(t)
	sess := m.NewSession()
	defer sess.Close()

	var quiet, zero []httpx.Request
	for _, req := range traffic.NewGenerator(51).Requests(300) {
		if sess.Inspect(req).Alert {
			continue
		}
		quiet = append(quiet, req)
		if testing.AllocsPerRun(5, func() { sess.Inspect(req) }) == 0 {
			zero = append(zero, req)
		}
	}
	if len(quiet) < 100 {
		t.Fatalf("only %d of 300 benign probes are non-alerting; corpus unusable for the alloc pin", len(quiet))
	}
	// A meaningful share of generated benign traffic must take the fully
	// allocation-free path, and re-measuring that set must stay at zero —
	// any pooled buffer regressing to a per-call allocation trips this.
	if len(zero) < len(quiet)/20 {
		t.Fatalf("only %d of %d non-alerting probes inspect allocation-free", len(zero), len(quiet))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, req := range zero {
			sess.Inspect(req)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state quiet Inspect allocated %.1f objects per pass of %d requests", allocs, len(zero))
	}
	// Full benign mix: average allocations per request may not exceed the
	// regexp engine's own per-match cost by more than a small margin.
	perPass := testing.AllocsPerRun(20, func() {
		for _, req := range quiet {
			sess.Inspect(req)
		}
	})
	if perReq := perPass / float64(len(quiet)); perReq > 4 {
		t.Fatalf("benign Inspect averages %.2f allocs/request; fast-path state is leaking per call", perReq)
	}
}
