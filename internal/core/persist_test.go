package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/traffic"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := smallModel(t)
	var buf bytes.Buffer
	if err := m.encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	loaded, err := decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(loaded.Signatures) != len(m.Signatures) {
		t.Fatalf("loaded %d signatures, want %d", len(loaded.Signatures), len(m.Signatures))
	}
	if loaded.Features.Len() != m.Features.Len() {
		t.Fatalf("loaded %d features, want %d", loaded.Features.Len(), m.Features.Len())
	}
	// Identical verdicts and probabilities on a mixed workload.
	reqs := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 77).Requests(100),
		traffic.NewGenerator(78).Requests(100)...)
	for _, r := range reqs {
		a, b := m.Inspect(r), loaded.Inspect(r)
		if a.Alert != b.Alert {
			t.Fatalf("verdicts differ on %q", r.RawQuery)
		}
		pa, pb := m.Probabilities(r), loaded.Probabilities(r)
		for i := range pa {
			if math.Abs(pa[i]-pb[i]) > 1e-12 {
				t.Fatalf("probabilities differ on %q: %v vs %v", r.RawQuery, pa, pb)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"version": 99}`,
		`{"version": 1, "features": [], "signatures": []}`,
		`{"version": 1, "features": [{"name":"a","source":1,"word":"a"}],
		  "signatures": [{"id":1,"features":[0,1],"weights":[1],"bias":0,"threshold":0.5}]}`,
		`{"version": 1, "features": [{"name":"a","source":1,"word":"a"}],
		  "signatures": [{"id":1,"features":[5],"weights":[1],"bias":0,"threshold":0.5}]}`,
		// A repeated column: dense and sparse scoring would disagree.
		`{"version": 1, "features": [{"name":"a","source":1,"word":"union"}],
		  "signatures": [{"id":1,"features":[0,0],"weights":[3,-3],"bias":-1,"threshold":0.5}]}`,
	}
	for i, c := range cases {
		if _, err := decode(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

// TestLoadTruncated cuts a real saved model at every prefix length up to
// (and including) the final closing brace: all are incomplete JSON and must
// produce a clean error, never a panic and never a partially-built model.
// This is the gateway's reload safety net — a half-written model file on
// disk must be rejected before the detector swap.
func TestLoadTruncated(t *testing.T) {
	m := smallModel(t)
	var buf bytes.Buffer
	if err := m.encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	end := bytes.LastIndexByte(full, '}')
	if end < 0 {
		t.Fatal("saved model has no closing brace")
	}
	// Stride keeps the quadratic decode work bounded; always include the
	// boundary cases 0, 1, and the byte just before the closing brace.
	cuts := []int{0, 1, end - 1, end}
	for n := 2; n < end-1; n += 97 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if _, err := decode(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated to %d of %d bytes: want error", n, len(full))
		}
	}
	// Sanity: the untruncated bytes still load.
	if _, err := decode(bytes.NewReader(full)); err != nil {
		t.Fatalf("full model failed to load: %v", err)
	}
}

// TestLoadCorrupted flips single bytes of a valid saved model. Corruption
// may survive decoding (a digit flipped inside a weight is still valid
// JSON), so the invariant is weaker than for truncation: decode must never
// panic, and any model it does accept must score requests without
// panicking.
func TestLoadCorrupted(t *testing.T) {
	m := smallModel(t)
	var buf bytes.Buffer
	if err := m.encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	probe := attackgen.NewGenerator(attackgen.SQLMapProfile(), 80).Requests(5)
	for pos := 0; pos < len(full); pos += 53 {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), full...)
			mut[pos] ^= flip
			loaded, err := decode(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			for _, r := range probe {
				loaded.Inspect(r) // must not panic
			}
		}
	}
}
