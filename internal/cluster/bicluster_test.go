package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"psigene/internal/matrix"
)

// syntheticAttackMatrix builds a matrix with three planted sample groups,
// each supported by its own feature block, plus a near-empty "black hole"
// group, mimicking the structure of the paper's training matrix.
func syntheticAttackMatrix(t *testing.T, rng *rand.Rand) (*matrix.Dense, []float64) {
	t.Helper()
	const features = 24
	type group struct {
		n     int
		feats []int
	}
	groups := []group{
		{n: 40, feats: []int{0, 1, 2, 3}},
		{n: 30, feats: []int{8, 9, 10}},
		{n: 20, feats: []int{15, 16, 17, 18, 19}},
		{n: 10, feats: nil}, // black hole: almost all zeros
	}
	var rows [][]float64
	for _, g := range groups {
		for i := 0; i < g.n; i++ {
			r := make([]float64, features)
			for _, f := range g.feats {
				r[f] = float64(1 + rng.Intn(3))
			}
			rows = append(rows, r)
		}
	}
	m, err := matrix.NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m, nil
}

func TestRunRecoversPlantedBiclusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, w := syntheticAttackMatrix(t, rng)
	res, err := Run(m, w, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Biclusters) < 3 {
		t.Fatalf("found %d biclusters, want >= 3", len(res.Biclusters))
	}
	// Each planted group's feature block should appear as some bicluster's
	// discriminating features.
	wantBlocks := [][]int{{0, 1, 2, 3}, {8, 9, 10}, {15, 16, 17, 18, 19}}
	for _, want := range wantBlocks {
		found := false
		for _, b := range res.Biclusters {
			if equalIntSets(b.Features, want) {
				found = true
				break
			}
		}
		if !found {
			var got [][]int
			for _, b := range res.Biclusters {
				got = append(got, b.Features)
			}
			t.Fatalf("planted feature block %v not recovered; got %v", want, got)
		}
	}
	if res.CopheneticCorrelation < 0.7 {
		t.Fatalf("cophenetic=%v, want >= 0.7 on planted structure", res.CopheneticCorrelation)
	}
}

func TestRunDetectsBlackHole(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, w := syntheticAttackMatrix(t, rng)
	res, err := Run(m, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var holes int
	for _, b := range res.Biclusters {
		if b.BlackHole {
			holes++
			if b.ZeroFraction <= 0.99 {
				t.Fatalf("black hole with zero fraction %v", b.ZeroFraction)
			}
		}
	}
	if holes == 0 {
		t.Fatal("planted all-zero group not flagged as black hole")
	}
	if len(res.ActiveBiclusters()) != len(res.Biclusters)-holes {
		t.Fatal("ActiveBiclusters must exclude exactly the black holes")
	}
}

func TestRunRowsArePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, w := syntheticAttackMatrix(t, rng)
	res, err := Run(m, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	add := func(leaves []int) {
		for _, l := range leaves {
			if seen[l] {
				t.Fatalf("row %d assigned twice", l)
			}
			seen[l] = true
		}
	}
	for _, b := range res.Biclusters {
		add(b.RowLeaves)
	}
	add(res.Unclustered)
	if len(seen) != m.Rows() {
		t.Fatalf("covered %d rows, want %d", len(seen), m.Rows())
	}
}

func TestRunMinClusterFrac(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, w := syntheticAttackMatrix(t, rng)
	total := float64(m.Rows())
	res, err := Run(m, w, Options{MinClusterFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Biclusters {
		if b.SampleWeight < 0.05*total {
			t.Fatalf("bicluster %d covers %.1f samples, below 5%% of %v", b.ID, b.SampleWeight, total)
		}
	}
}

func TestRunWeightedMatchesExpanded(t *testing.T) {
	// Deduplicated weighted input must select biclusters with the same
	// expanded sample weights as the fully expanded input.
	pts := [][]float64{
		{3, 0, 0, 0}, {0, 3, 0, 0}, {0, 0, 3, 0}, {0, 0, 0, 3},
	}
	mult := []float64{40, 30, 20, 10}
	var expanded [][]float64
	for i, p := range pts {
		for k := 0; k < int(mult[i]); k++ {
			expanded = append(expanded, p)
		}
	}
	me, _ := matrix.NewFromRows(expanded)
	resE, err := Run(me, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	md, _ := matrix.NewFromRows(pts)
	resD, err := Run(md, mult, Options{})
	if err != nil {
		t.Fatal(err)
	}
	we := clusterWeights(resE)
	wd := clusterWeights(resD)
	if len(we) != len(wd) {
		t.Fatalf("cluster counts differ: expanded %v vs weighted %v", we, wd)
	}
	for i := range we {
		if we[i] != wd[i] {
			t.Fatalf("cluster weights differ: expanded %v vs weighted %v", we, wd)
		}
	}
}

func clusterWeights(r *Result) []float64 {
	out := make([]float64, 0, len(r.Biclusters))
	for _, b := range r.Biclusters {
		out = append(out, b.SampleWeight)
	}
	// Sort descending for comparability.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] > out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestRunErrors(t *testing.T) {
	one, _ := matrix.NewFromRows([][]float64{{1, 2}})
	if _, err := Run(one, nil, Options{}); err == nil {
		t.Fatal("single row: want error")
	}
}

func TestRunFeatureOrderCoversFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, w := syntheticAttackMatrix(t, rng)
	res, err := Run(m, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Biclusters {
		if len(b.FeatureOrder) != len(b.Features) {
			t.Fatalf("bicluster %d: order %v vs features %v", b.ID, b.FeatureOrder, b.Features)
		}
		if !equalIntSets(b.FeatureOrder, b.Features) {
			t.Fatalf("bicluster %d: FeatureOrder must be a permutation of Features", b.ID)
		}
	}
}

func TestBiclusterIDsAreHeatmapOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, w := syntheticAttackMatrix(t, rng)
	res, err := Run(m, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Biclusters {
		if b.ID != i+1 {
			t.Fatalf("bicluster %d has ID %d", i, b.ID)
		}
	}
	// Row leaves of consecutive biclusters must be contiguous in the
	// dendrogram leaf order.
	pos := make(map[int]int)
	for p, leaf := range res.RowDendrogram.LeafOrder() {
		pos[leaf] = p
	}
	prevMax := -1
	for _, b := range res.Biclusters {
		mn, mx := m.Rows(), -1
		for _, l := range b.RowLeaves {
			if pos[l] < mn {
				mn = pos[l]
			}
			if pos[l] > mx {
				mx = pos[l]
			}
		}
		if mx-mn+1 != len(b.RowLeaves) {
			t.Fatalf("bicluster %d leaves not contiguous in heat-map order", b.ID)
		}
		if mn <= prevMax {
			t.Fatalf("bicluster %d out of heat-map order", b.ID)
		}
		prevMax = mx
	}
}

func equalIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}

// TestRunBackingParity: Run on the dense reference and on its CSR copy
// must produce identical biclusters — membership, features, feature order
// and cophenetic correlation compared with ==. Every kernel Run calls
// (pairwise distances, column statistics, standardized column distances,
// feature support) sees only RowNonZeros/RowSquaredEuclidean, whose
// results agree bit for bit across the two types.
func TestRunBackingParity(t *testing.T) {
	planted, _ := syntheticAttackMatrix(t, rand.New(rand.NewSource(42)))
	for name, d := range map[string]*matrix.Dense{
		"planted": planted,
		"random":  randomCountMatrix(t, 35, 14, 11),
	} {
		weights := make([]float64, d.Rows())
		for i := range weights {
			weights[i] = float64(1 + i%4)
		}
		want, err := Run(d, weights, Options{})
		if err != nil {
			t.Fatalf("%s: dense Run: %v", name, err)
		}
		got, err := Run(matrix.NewSparseFromDense(d), weights, Options{})
		if err != nil {
			t.Fatalf("%s: sparse Run: %v", name, err)
		}
		if want.CopheneticCorrelation != got.CopheneticCorrelation {
			t.Fatalf("%s: cophenetic %v, want %v", name, got.CopheneticCorrelation, want.CopheneticCorrelation)
		}
		if !reflect.DeepEqual(want.RowDendrogram.Merges, got.RowDendrogram.Merges) ||
			!reflect.DeepEqual(want.ColDendrogram.Merges, got.ColDendrogram.Merges) {
			t.Fatalf("%s: dendrograms differ", name)
		}
		// Bicluster covers membership, weight, Features and FeatureOrder.
		if !reflect.DeepEqual(want.Biclusters, got.Biclusters) || !reflect.DeepEqual(want.Unclustered, got.Unclustered) {
			t.Fatalf("%s: biclusters differ:\nwant %+v\ngot  %+v", name, want.Biclusters, got.Biclusters)
		}
	}
}
