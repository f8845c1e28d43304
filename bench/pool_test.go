package main

import (
	"bytes"
	"testing"
)

func poolBytes(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	var out []byte
	keys := callerKeys(seed)
	for i, r := range w.build(seed, true) {
		wr, err := buildWire(r)
		if err != nil {
			t.Fatal(err)
		}
		out = wr.appendTo(out, keys[i])
	}
	return out
}

// The same seed must give byte-identical inputs, another seed other ones.
func TestPoolsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := poolBytes(t, w, 3), poolBytes(t, w, 3), poolBytes(t, w, 4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different bytes", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, same bytes", w.name)
		}
	}
}

func TestBigPostShape(t *testing.T) {
	pool := bigPosts(5, 40)
	attacks := 0
	for i, r := range pool {
		if r.Method != "POST" || len(r.Body) < bigPostBytes {
			t.Fatalf("request %d: %s with %d body bytes", i, r.Method, len(r.Body))
		}
		if r.Malicious {
			attacks++
		}
	}
	if attacks != 2 {
		t.Errorf("%d of 40 bodies carry an attack, want every 20th", attacks)
	}
}

func TestInterleaveSpreadsEvenly(t *testing.T) {
	pool := workloads[0].build(1, true) // 99% benign, 1% attacks
	first, last, n := -1, -1, 0
	for i, r := range pool {
		if r.Malicious {
			if first < 0 {
				first = i
			}
			last = i
			n++
		}
	}
	if n != len(pool)/100 || last-first < len(pool)/2-1 {
		t.Errorf("%d attacks between %d and %d of %d: not spread", n, first, last, len(pool))
	}
}

func TestCallerKeysStayInRange(t *testing.T) {
	distinct := map[uint32]bool{}
	for _, k := range callerKeys(1) {
		if k >= callerSpace {
			t.Fatalf("key %d outside the caller space %d", k, callerSpace)
		}
		distinct[k] = true
	}
	if len(distinct) <= maxCallers {
		t.Errorf("%d distinct callers never overflow the %d-entry LRU", len(distinct), maxCallers)
	}
}
