package cluster

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"psigene/internal/matrix"
)

// twoBlobs returns a matrix with two well-separated groups of points.
func twoBlobs(t *testing.T) *matrix.Dense {
	t.Helper()
	m, err := matrix.NewFromRows([][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, // blob A
		{10, 10}, {10.1, 10}, {10, 10.1}, // blob B
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUPGMATwoBlobs(t *testing.T) {
	m := twoBlobs(t)
	d, err := UPGMARows(m, nil)
	if err != nil {
		t.Fatalf("UPGMA: %v", err)
	}
	if len(d.Merges) != 5 {
		t.Fatalf("merges=%d, want 5", len(d.Merges))
	}
	// The last merge joins the two blobs at a large height.
	last := d.Merges[len(d.Merges)-1]
	if last.Height < 10 {
		t.Fatalf("final merge height=%v, want >= 10", last.Height)
	}
	// Cutting into 2 clusters recovers the blobs.
	cl, err := d.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != 2 {
		t.Fatalf("clusters=%d, want 2", len(cl))
	}
	for _, c := range cl {
		sort.Ints(c)
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	for i := range want {
		if len(cl[i]) != len(want[i]) {
			t.Fatalf("cluster %d = %v, want %v", i, cl[i], want[i])
		}
		for k := range want[i] {
			if cl[i][k] != want[i][k] {
				t.Fatalf("cluster %d = %v, want %v", i, cl[i], want[i])
			}
		}
	}
}

func TestUPGMAHeightsMonotone(t *testing.T) {
	// UPGMA on a metric produces (weakly) monotone merge heights.
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	m, _ := matrix.NewFromRows(rows)
	d, err := UPGMARows(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.Merges); i++ {
		if d.Merges[i].Height+1e-9 < d.Merges[i-1].Height {
			t.Fatalf("merge %d height %v < previous %v", i, d.Merges[i].Height, d.Merges[i-1].Height)
		}
	}
}

func TestUPGMAErrors(t *testing.T) {
	if _, err := UPGMA(matrix.NewCondensed(0), nil); err == nil {
		t.Fatal("empty input: want error")
	}
	if _, err := UPGMA(matrix.NewCondensed(3), []float64{1, 2}); err == nil {
		t.Fatal("weight length mismatch: want error")
	}
	if _, err := UPGMA(matrix.NewCondensed(2), []float64{1, -1}); err == nil {
		t.Fatal("negative weight: want error")
	}
	if _, err := UPGMA(matrix.NewCondensed(2), []float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN weight: want error")
	}
}

func TestUPGMASingleLeaf(t *testing.T) {
	d, err := UPGMA(matrix.NewCondensed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges) != 0 || d.NLeaves != 1 {
		t.Fatalf("unexpected dendrogram: %+v", d)
	}
	order := d.LeafOrder()
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("leaf order=%v", order)
	}
}

// TestWeightedEqualsExpanded verifies the key scaling property: weighted
// UPGMA over deduplicated points produces the same merge heights as plain
// UPGMA over the expanded point set.
func TestWeightedEqualsExpanded(t *testing.T) {
	// Three distinct points; point 0 appears 3 times, point 1 twice.
	pts := [][]float64{{0, 0}, {1, 0}, {5, 5}}
	mult := []int{3, 2, 1}

	var expandedRows [][]float64
	for i, p := range pts {
		for k := 0; k < mult[i]; k++ {
			expandedRows = append(expandedRows, p)
		}
	}
	me, _ := matrix.NewFromRows(expandedRows)
	de, err := UPGMARows(me, nil)
	if err != nil {
		t.Fatal(err)
	}

	md, _ := matrix.NewFromRows(pts)
	dd, err := UPGMARows(md, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}

	// Expanded tree has extra zero-height merges of duplicates; its nonzero
	// merge heights must match the weighted tree's merge heights.
	var expHeights, dedupHeights []float64
	for _, m := range de.Merges {
		if m.Height > 1e-12 {
			expHeights = append(expHeights, m.Height)
		}
	}
	for _, m := range dd.Merges {
		dedupHeights = append(dedupHeights, m.Height)
	}
	if len(expHeights) != len(dedupHeights) {
		t.Fatalf("nonzero merges: expanded %d vs weighted %d", len(expHeights), len(dedupHeights))
	}
	sort.Float64s(expHeights)
	sort.Float64s(dedupHeights)
	for i := range expHeights {
		if math.Abs(expHeights[i]-dedupHeights[i]) > 1e-9 {
			t.Fatalf("height %d: expanded %v vs weighted %v", i, expHeights[i], dedupHeights[i])
		}
	}
}

func TestLeafOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 25)
	for i := range rows {
		rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	m, _ := matrix.NewFromRows(rows)
	d, err := UPGMARows(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	order := d.LeafOrder()
	if len(order) != 25 {
		t.Fatalf("order length=%d", len(order))
	}
	seen := make(map[int]bool)
	for _, v := range order {
		if v < 0 || v >= 25 || seen[v] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[v] = true
	}
}

func TestCutKErrors(t *testing.T) {
	m := twoBlobs(t)
	d, _ := UPGMARows(m, nil)
	if _, err := d.CutK(0); err == nil {
		t.Fatal("CutK(0): want error")
	}
	if _, err := d.CutK(7); err == nil {
		t.Fatal("CutK(n+1): want error")
	}
	cl, err := d.CutK(6)
	if err != nil || len(cl) != 6 {
		t.Fatalf("CutK(6): %v, %d clusters", err, len(cl))
	}
	cl, err = d.CutK(1)
	if err != nil || len(cl) != 1 || len(cl[0]) != 6 {
		t.Fatalf("CutK(1): %v %v", err, cl)
	}
}

func TestCutKPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	m, _ := matrix.NewFromRows(rows)
	d, _ := UPGMARows(m, nil)
	for k := 1; k <= 30; k += 7 {
		cl, err := d.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cl) != k {
			t.Fatalf("CutK(%d) gave %d clusters", k, len(cl))
		}
		seen := make(map[int]bool)
		for _, c := range cl {
			for _, leaf := range c {
				if seen[leaf] {
					t.Fatalf("leaf %d in two clusters", leaf)
				}
				seen[leaf] = true
			}
		}
		if len(seen) != 30 {
			t.Fatalf("partition covers %d leaves, want 30", len(seen))
		}
	}
}

func TestCopheneticPerfectForUltrametric(t *testing.T) {
	// If the input distances are already ultrametric, the cophenetic
	// correlation is exactly 1.
	d := matrix.NewCondensed(4)
	// Two pairs at distance 1, everything across pairs at distance 4.
	d.Set(0, 1, 1)
	d.Set(2, 3, 1)
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		d.Set(p[0], p[1], 4)
	}
	dend, err := UPGMA(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dend.CopheneticCorrelation(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-9 {
		t.Fatalf("cophenetic=%v, want 1", c)
	}
}

func TestCopheneticHighForSeparatedBlobs(t *testing.T) {
	m := twoBlobs(t)
	dist := matrix.PairwiseDistances(m)
	dend, _ := UPGMA(dist, nil)
	c, err := dend.CopheneticCorrelation(dist)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.9 {
		t.Fatalf("cophenetic=%v, want >= 0.9 for well-separated blobs", c)
	}
}

func TestCopheneticErrors(t *testing.T) {
	m := twoBlobs(t)
	dend, _ := UPGMARows(m, nil)
	if _, err := dend.CopheneticCorrelation(matrix.NewCondensed(3)); err == nil {
		t.Fatal("size mismatch: want error")
	}
}

func TestCopheneticDistanceIsMergeHeight(t *testing.T) {
	m := twoBlobs(t)
	d, _ := UPGMARows(m, nil)
	coph := d.CopheneticDistances()
	last := d.Merges[len(d.Merges)-1].Height
	// Leaves in different blobs meet at the root.
	if math.Abs(coph.At(0, 5)-last) > 1e-9 {
		t.Fatalf("coph(0,5)=%v, want root height %v", coph.At(0, 5), last)
	}
	// Leaves in the same blob meet strictly below the root.
	if coph.At(0, 1) >= last {
		t.Fatalf("coph(0,1)=%v, want < %v", coph.At(0, 1), last)
	}
}

// Property: for random point sets, cophenetic distances are ultrametric:
// coph(a,c) <= max(coph(a,b), coph(b,c)).
func TestCopheneticUltrametricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(10)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		m, _ := matrix.NewFromRows(rows)
		d, err := UPGMARows(m, nil)
		if err != nil {
			return false
		}
		coph := d.CopheneticDistances()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					ab, bc, ac := coph.At(a, b), coph.At(b, c), coph.At(a, c)
					if ac > math.Max(ab, bc)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkageVariants(t *testing.T) {
	m := twoBlobs(t)
	dist := matrix.PairwiseDistances(m)
	for _, l := range []Linkage{LinkageAverage, LinkageSingle, LinkageComplete} {
		d, err := Agglomerate(dist, nil, l)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		cl, err := d.CutK(2)
		if err != nil || len(cl) != 2 {
			t.Fatalf("%v: cut failed: %v", l, err)
		}
		// Well-separated blobs are recovered under every linkage.
		for _, c := range cl {
			if len(c) != 3 {
				t.Fatalf("%v: clusters %v", l, cl)
			}
		}
	}
}

func TestLinkageHeightOrdering(t *testing.T) {
	// For the same data, single-linkage root height <= average <= complete.
	rng := rand.New(rand.NewSource(17))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	m, _ := matrix.NewFromRows(rows)
	dist := matrix.PairwiseDistances(m)
	root := func(l Linkage) float64 {
		d, err := Agglomerate(dist, nil, l)
		if err != nil {
			t.Fatal(err)
		}
		return d.Merges[len(d.Merges)-1].Height
	}
	s, a, c := root(LinkageSingle), root(LinkageAverage), root(LinkageComplete)
	if !(s <= a+1e-9 && a <= c+1e-9) {
		t.Fatalf("root heights not ordered: single=%v average=%v complete=%v", s, a, c)
	}
}

func TestLinkageString(t *testing.T) {
	for _, l := range []Linkage{LinkageAverage, LinkageSingle, LinkageComplete} {
		if strings.HasPrefix(l.String(), "Linkage(") {
			t.Fatalf("linkage %d unnamed", l)
		}
	}
	if !strings.HasPrefix(Linkage(9).String(), "Linkage(") {
		t.Fatal("unknown linkage must fall back")
	}
}
