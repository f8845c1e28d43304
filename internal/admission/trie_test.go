package admission

import (
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"psigene/internal/resilience"
)

func mustSet(t *testing.T, cidrs ...string) *CIDRSet {
	t.Helper()
	var ps []netip.Prefix
	for _, c := range cidrs {
		p, err := parseEntry(c)
		if err != nil {
			t.Fatalf("parseEntry(%q): %v", c, err)
		}
		ps = append(ps, p)
	}
	s, err := BuildCIDRSet(ps)
	if err != nil {
		t.Fatalf("BuildCIDRSet: %v", err)
	}
	return s
}

func TestCIDRSetMembership(t *testing.T) {
	s := mustSet(t,
		"10.0.0.0/8", "192.168.1.0/24", "203.0.113.7", // v4: net, subnet, host
		"2001:db8::/32", "fe80::1", // v6
	)
	cases := []struct {
		ip   string
		want bool
	}{
		{"10.0.0.1", true},
		{"10.255.255.255", true},
		{"11.0.0.0", false},
		{"9.255.255.255", false},
		{"192.168.1.200", true},
		{"192.168.2.1", false},
		{"203.0.113.7", true},
		{"203.0.113.8", false},
		{"2001:db8:dead:beef::1", true},
		{"2001:db9::1", false},
		{"fe80::1", true},
		{"fe80::2", false},
		// IPv4-mapped v6 must land in the v4 subtrie.
		{"::ffff:10.1.2.3", true},
		{"::ffff:11.1.2.3", false},
	}
	for _, c := range cases {
		if got := s.Contains(netip.MustParseAddr(c.ip)); got != c.want {
			t.Errorf("Contains(%s) = %v, want %v", c.ip, got, c.want)
		}
	}
	if s.Contains(netip.Addr{}) {
		t.Error("invalid address must never match")
	}
}

func TestCIDRSetNestedAndDuplicate(t *testing.T) {
	// A /16 absorbing a nested /24, inserted in both orders, plus an exact
	// duplicate: membership must be identical regardless.
	for _, order := range [][]string{
		{"172.16.0.0/16", "172.16.5.0/24", "172.16.5.0/24"},
		{"172.16.5.0/24", "172.16.5.0/24", "172.16.0.0/16"},
	} {
		s := mustSet(t, order...)
		for ip, want := range map[string]bool{
			"172.16.5.9":   true,
			"172.16.200.1": true,
			"172.17.0.1":   false,
		} {
			if got := s.Contains(netip.MustParseAddr(ip)); got != want {
				t.Errorf("order %v: Contains(%s) = %v, want %v", order, ip, got, want)
			}
		}
	}
}

// TestCIDRSetMappedPrefix is the regression test for the IPv4-mapped
// CIDR bug: ::ffff:10.0.0.0/104 used to be unmapped to a 4-byte address
// while keeping its 104-bit length, producing an invalid prefix that was
// inserted as a match-all node in the IPv6 root — one denylist line
// 403'ing every IPv6 client (or, as a trusted-proxy entry, trusting every
// IPv6 peer) while blocking nothing in the intended range.
func TestCIDRSetMappedPrefix(t *testing.T) {
	s := mustSet(t, "::ffff:10.0.0.0/104") // denotes 10.0.0.0/8
	for ip, want := range map[string]bool{
		"10.1.2.3":        true,
		"::ffff:10.1.2.3": true, // lookups unmap, so the mapped form matches too
		"11.0.0.1":        false,
		"9.255.255.255":   false,
		// The bug made these all match: the v6 root must stay untouched.
		"::":          false,
		"2001:db8::1": false,
		"fe80::1":     false,
	} {
		if got := s.Contains(netip.MustParseAddr(ip)); got != want {
			t.Errorf("Contains(%s) = %v, want %v", ip, got, want)
		}
	}
	if err := probeCIDRSet(s); err != nil {
		t.Fatalf("probe of a translated mapped prefix: %v", err)
	}

	// The full mapping prefix denotes all of v4.
	all4 := mustSet(t, "::ffff:0:0/96")
	if !all4.Contains(netip.MustParseAddr("203.0.113.1")) {
		t.Error("::ffff:0:0/96 must cover every v4 address")
	}
	if all4.Contains(netip.MustParseAddr("2001:db8::1")) {
		t.Error("::ffff:0:0/96 must not cover native v6 addresses")
	}

	// A mapped prefix shorter than /96 spans space no unmapped lookup can
	// reach; silently matching nothing is worse than failing the build.
	if _, err := BuildCIDRSet([]netip.Prefix{netip.MustParsePrefix("::ffff:10.0.0.0/95")}); err == nil {
		t.Fatal("mapped prefix shorter than /96 must be rejected")
	}
	if _, err := ParseDenylist(strings.NewReader("::ffff:10.0.0.0/104\n")); err != nil {
		t.Fatalf("mapped CIDR denylist line: %v", err)
	}
}

func TestCIDRSetEmptyAndNil(t *testing.T) {
	var nilSet *CIDRSet
	if nilSet.Contains(netip.MustParseAddr("1.2.3.4")) {
		t.Error("nil set must contain nothing")
	}
	if nilSet.Len() != 0 {
		t.Error("nil set must have length 0")
	}
	empty, err := BuildCIDRSet(nil)
	if err != nil {
		t.Fatalf("empty build: %v", err)
	}
	if empty.Contains(netip.MustParseAddr("1.2.3.4")) {
		t.Error("empty set must contain nothing")
	}
}

func TestCIDRSetDefaultRoute(t *testing.T) {
	s := mustSet(t, "0.0.0.0/0")
	if !s.Contains(netip.MustParseAddr("203.0.113.1")) {
		t.Error("0.0.0.0/0 must match every v4 address")
	}
	if s.Contains(netip.MustParseAddr("2001:db8::1")) {
		t.Error("0.0.0.0/0 must not match v6 addresses")
	}
}

// TestCIDRSetAgainstReference cross-checks the trie against netip's own
// Contains over a deterministic prefix soup and probe set — every
// disagreement is a trie bug by definition.
func TestCIDRSetAgainstReference(t *testing.T) {
	rng := resilience.NewSplitMix64(7)
	var prefixes []netip.Prefix
	for i := 0; i < 4000; i++ {
		v := rng.Next()
		bits := 8 + int(v%25) // /8 .. /32
		a := netip.AddrFrom4([4]byte{byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)})
		prefixes = append(prefixes, netip.PrefixFrom(a, bits).Masked())
	}
	for i := 0; i < 1000; i++ {
		v := rng.Next()
		var b [16]byte
		for j := range b {
			b[j] = byte(v >> (uint(j%8) * 8))
			if j == 7 {
				v = rng.Next()
			}
		}
		bits := 16 + int(v%113) // /16 .. /128
		prefixes = append(prefixes, netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked())
	}
	s, err := BuildCIDRSet(prefixes)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	reference := func(ip netip.Addr) bool {
		ip = ip.Unmap()
		for _, p := range prefixes {
			if p.Contains(ip) {
				return true
			}
		}
		return false
	}
	checked, hits := 0, 0
	for i := 0; i < 3000; i++ {
		v := rng.Next()
		var ip netip.Addr
		if i%2 == 0 {
			ip = netip.AddrFrom4([4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		} else {
			var b [16]byte
			w := rng.Next()
			for j := 0; j < 8; j++ {
				b[j] = byte(v >> (uint(j) * 8))
				b[8+j] = byte(w >> (uint(j) * 8))
			}
			ip = netip.AddrFrom16(b)
		}
		want := reference(ip)
		if got := s.Contains(ip); got != want {
			t.Fatalf("Contains(%s) = %v, reference says %v", ip, got, want)
		}
		checked++
		if want {
			hits++
		}
	}
	if hits == 0 || hits == checked {
		t.Fatalf("degenerate probe mix: %d/%d hits", hits, checked)
	}
}

// syntheticPrefixes generates n deterministic v4 CIDRs in the /12../28
// range — the million-entry denylist of the acceptance criteria. All
// entries keep the address-space top bit clear, so probes with it set are
// guaranteed misses and a probe mix can exercise both lookup outcomes.
func syntheticPrefixes(n int) []netip.Prefix {
	rng := resilience.NewSplitMix64(0x5eed)
	out := make([]netip.Prefix, 0, n)
	for len(out) < n {
		v := rng.Next()
		bits := 12 + int(v%17)
		a := netip.AddrFrom4([4]byte{byte(v>>32) &^ 0x80, byte(v >> 40), byte(v >> 48), byte(v >> 56)})
		out = append(out, netip.PrefixFrom(a, bits).Masked())
	}
	return out
}

// TestAbuseChaosDenylistMillionEntries builds a trie from one million
// synthetic CIDRs and verifies O(address-bits) behaviour: every inserted
// prefix's base address matches, spot misses agree with a linear
// reference, and the median lookup stays under a microsecond (timing
// asserted only without the race detector; always logged).
func TestAbuseChaosDenylistMillionEntries(t *testing.T) {
	const n = 1_000_000
	prefixes := syntheticPrefixes(n)
	start := time.Now()
	s, err := BuildCIDRSet(prefixes)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	buildTime := time.Since(start)
	if s.Len() != n {
		t.Fatalf("Len() = %d, want %d", s.Len(), n)
	}

	// Every inserted prefix must match its own base address.
	for i := 0; i < n; i += 997 {
		if !s.Contains(prefixes[i].Addr()) {
			t.Fatalf("entry %d (%v): base address not contained", i, prefixes[i])
		}
	}

	// Median lookup latency over batches: per-op timing is dominated by
	// clock reads, so time batches of lookups and take the median batch.
	// Half the probes stay in the populated (top bit clear) half of the
	// address space, half are guaranteed misses, so the median covers both
	// lookup outcomes.
	probes := make([]netip.Addr, 4096)
	rng := resilience.NewSplitMix64(0x100c)
	for i := range probes {
		v := rng.Next()
		first := byte(v)
		if i%2 == 0 {
			first &^= 0x80
		} else {
			first |= 0x80
		}
		probes[i] = netip.AddrFrom4([4]byte{first, byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	const batches, perBatch = 256, 512
	times := make([]float64, batches)
	sink := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			if s.Contains(probes[(b*perBatch+i)%len(probes)]) {
				sink++
			}
		}
		times[b] = float64(time.Since(t0).Nanoseconds()) / perBatch
	}
	sort.Float64s(times)
	median := times[batches/2]
	total := batches * perBatch
	t.Logf("1M-entry denylist: build %v, %d arena nodes, median lookup %.0fns (hits %d/%d)",
		buildTime, len(s.nodes), median, sink, total)
	if sink == 0 || sink == total {
		t.Fatalf("degenerate probe mix: %d/%d hits", sink, total)
	}
	if !raceEnabled && median > 1000 {
		t.Fatalf("median lookup %.0fns exceeds the sub-microsecond budget", median)
	}
}

func TestParseDenylist(t *testing.T) {
	input := `
# production denylist
10.0.0.0/8      # rfc1918
203.0.113.7     bad host? no -- trailing junk is a comment only after #
`
	if _, err := ParseDenylist(strings.NewReader(input)); err == nil {
		t.Fatal("trailing junk after an address must fail the parse")
	}
	good := "10.0.0.0/8\n203.0.113.7 # host\n\n2001:db8::/32\n"
	s, err := ParseDenylist(strings.NewReader(good))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", s.Len())
	}
	if !s.Contains(netip.MustParseAddr("203.0.113.7")) {
		t.Fatal("host entry not matched")
	}

	// A malformed line reports its number without dumping the content
	// (the admin surface logs it; clients never see it either way).
	_, err = ParseDenylist(strings.NewReader("10.0.0.0/8\nnot-a-cidr/99\n"))
	if err == nil {
		t.Fatal("malformed line must fail")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not name the line", err)
	}
}

func TestProbeCIDRSet(t *testing.T) {
	if err := probeCIDRSet(mustSet(t, "10.0.0.0/8")); err != nil {
		t.Fatalf("probe of a healthy trie: %v", err)
	}
	// A structurally broken trie (child index out of range at a branch
	// node every v4 lookup crosses) must fail the probe instead of
	// panicking through to the serving path.
	broken := mustSet(t, "0.0.0.0/1", "128.0.0.0/1")
	broken.nodes[broken.root4].child[0] = 1 << 30
	broken.nodes[broken.root4].child[1] = 1 << 30
	if err := probeCIDRSet(broken); err == nil {
		t.Fatal("probe must reject a trie whose lookup panics")
	}
}

// TestProbeCIDRSetCatchesCorruptBits: the structural walk must reject
// nodes whose prefix length escapes the family's address width — the
// exact shape the mapped-prefix bug produced (a bits=-1 node acting as an
// IPv6 match-all), which lookups answer without panicking and an
// address-probe alone would read as a legal "deny everything" set.
func TestProbeCIDRSetCatchesCorruptBits(t *testing.T) {
	matchAll := &CIDRSet{
		nodes: []trieNode{{bits: -1, terminal: true, child: [2]int32{-1, -1}}},
		root4: -1, root6: 0, n: 1,
	}
	// Demonstrate the severity: the corrupt node silently matches any v6.
	if !matchAll.Contains(netip.MustParseAddr("2001:db8::1")) {
		t.Fatal("corrupt node should be a v6 match-all (test premise)")
	}
	if err := probeCIDRSet(matchAll); err == nil {
		t.Fatal("probe must reject a node with bits < 0")
	}

	tooLong := mustSet(t, "10.0.0.0/8")
	tooLong.nodes[tooLong.root4].bits = 104 // v4 nodes cap at /32
	if err := probeCIDRSet(tooLong); err == nil {
		t.Fatal("probe must reject a v4 node with bits > 32")
	}
}

func TestBuildCIDRSetRejectsInvalid(t *testing.T) {
	if _, err := BuildCIDRSet([]netip.Prefix{{}}); err == nil {
		t.Fatal("zero prefix must be rejected")
	}
}
