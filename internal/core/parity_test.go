package core

import (
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/traffic"
)

// requireIdenticalModels demands bit-identical trained models: same stats,
// same signature metadata, features, bias and weights, compared with ==
// rather than a tolerance. It then replays probe traffic through both and
// demands identical probabilities verdict for verdict. Shared by the
// serial-vs-parallel training and update parity tests.
func requireIdenticalModels(t *testing.T, label string, want, got *Model, probes []httpx.Request) {
	t.Helper()
	if len(want.Signatures) != len(got.Signatures) {
		t.Fatalf("%s: signature counts differ: want %d, got %d", label, len(want.Signatures), len(got.Signatures))
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: training stats differ:\nwant %+v\ngot  %+v", label, want.Stats, got.Stats)
	}
	for i, ws := range want.Signatures {
		gs := got.Signatures[i]
		if ws.ID != gs.ID || ws.SampleWeight != gs.SampleWeight || ws.BiclusterFeatures != gs.BiclusterFeatures {
			t.Fatalf("%s: signature %d metadata differs: want %+v, got %+v", label, i, ws, gs)
		}
		if len(ws.Features) != len(gs.Features) {
			t.Fatalf("%s: signature %d: feature counts differ (want %d, got %d)", label, ws.ID, len(ws.Features), len(gs.Features))
		}
		for k := range ws.Features {
			if ws.Features[k] != gs.Features[k] {
				t.Fatalf("%s: signature %d: feature %d differs (want %d, got %d)", label, ws.ID, k, ws.Features[k], gs.Features[k])
			}
		}
		if ws.Model.Bias != gs.Model.Bias {
			t.Fatalf("%s: signature %d: bias differs (want %v, got %v)", label, ws.ID, ws.Model.Bias, gs.Model.Bias)
		}
		for k := range ws.Model.Weights {
			if ws.Model.Weights[k] != gs.Model.Weights[k] {
				t.Fatalf("%s: signature %d: weight %d differs (want %v, got %v)", label, ws.ID, k, ws.Model.Weights[k], gs.Model.Weights[k])
			}
		}
	}
	for _, req := range probes {
		wp := want.Probabilities(req)
		gp := got.Probabilities(req)
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("%s: probability differs on %q: want %v, got %v", label, req.Payload(), wp[i], gp[i])
			}
		}
	}
}

// TestSparseScoringMatchesDenseScoring pins the one scorer (sparse feature
// vector + per-signature weight index) to a dense reference: the logistic
// model's Predict over the signature's features gathered from the full
// count vector.
func TestSparseScoringMatchesDenseScoring(t *testing.T) {
	m := smallModel(t)
	probes := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 21).Requests(200),
		traffic.NewGenerator(22).Requests(400)...,
	)
	for _, req := range probes {
		cols, vals := m.SparseVector(req)
		full := make([]float64, m.Features.Len())
		for k, j := range cols {
			full[j] = vals[k]
		}
		for _, s := range m.Signatures {
			x := make([]float64, len(s.Features))
			for i, j := range s.Features {
				x[i] = full[j]
			}
			dense := s.Model.Predict(x)
			sparse := s.ProbabilitySparse(cols, vals)
			if dense != sparse {
				t.Fatalf("signature %d on %q: dense %v, sparse %v", s.ID, req.Payload(), dense, sparse)
			}
		}
	}
}
