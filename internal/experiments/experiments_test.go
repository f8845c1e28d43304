package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// testScale keeps experiment tests fast while exercising every code path.
func testScale() Scale {
	return Scale{
		TrainAttacks: 1000,
		TrainBenign:  2500,
		SQLMapTests:  400,
		ArachniTests: 200,
		VegaTests:    200,
		BenignTests:  4000,
		Seed:         1,
	}
}

var sharedEnv *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	env, err := Setup(testScale())
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	sharedEnv = env
	return env
}

func TestSetup(t *testing.T) {
	env := testEnv(t)
	if len(env.TrainAttackReqs) != 1000 || len(env.Arachni) != 400 {
		t.Fatalf("dataset sizes wrong: %d train, %d arachni", len(env.TrainAttackReqs), len(env.Arachni))
	}
	if len(env.Model9.Signatures) == 0 {
		t.Fatal("model has no signatures")
	}
	if len(env.Model7.Signatures) >= len(env.Model9.Signatures) && len(env.Model9.Signatures) > 2 {
		t.Fatal("Model7 must be a strict subset when possible")
	}
	if len(env.Detectors()) != 5 {
		t.Fatalf("Detectors()=%d, want 5", len(env.Detectors()))
	}
}

func TestTable1(t *testing.T) {
	tbl, err := Table1(1)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	out := tbl.String()
	if !strings.Contains(out, "CVE-2012-3554") {
		t.Fatalf("Table I missing CVE rows:\n%s", out)
	}
	if !strings.Contains(out, "yes") {
		t.Fatalf("crawl did not cover any known CVE:\n%s", out)
	}
}

func TestTable2(t *testing.T) {
	out := Table2().String()
	if !strings.Contains(out, "477") {
		t.Fatalf("Table II must report the 477-candidate census:\n%s", out)
	}
	if !strings.Contains(out, "MySQL Reserved Words") {
		t.Fatalf("Table II missing sources:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	env := testEnv(t)
	tbl, err := Table3(env)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	out := tbl.String()
	if !strings.Contains(out, "signature") || !strings.Contains(out, "(theta)") {
		t.Fatalf("Table III incomplete:\n%s", out)
	}
}

func TestTable4(t *testing.T) {
	out := Table4().String()
	for _, want := range []string{"Bro", "Snort", "Emerging Threats", "ModSecurity", "4231", "79", "34", "6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table IV missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	env := testEnv(t)
	rows, tbl := Table5(env)
	if len(rows) != 5 {
		t.Fatalf("Table V has %d rows", len(rows))
	}
	byName := map[string]AccuracyRow{}
	for _, r := range rows {
		switch {
		case strings.HasPrefix(r.System, "ModSecurity"):
			byName["modsec"] = r
		case strings.HasPrefix(r.System, "Bro"):
			byName["bro"] = r
		case strings.HasPrefix(r.System, "Snort"):
			byName["snort"] = r
		case strings.HasPrefix(r.System, "pSigene"):
			if _, ok := byName["psigene"]; !ok || r.TPRSQLMap > byName["psigene"].TPRSQLMap {
				byName["psigene"] = r
			}
		}
	}
	// The paper's comparative shape:
	// ModSec > pSigene > Snort-ET and pSigene > Bro on TPR.
	if byName["modsec"].TPRSQLMap <= byName["psigene"].TPRSQLMap {
		t.Errorf("ModSec TPR %.3f must exceed pSigene %.3f", byName["modsec"].TPRSQLMap, byName["psigene"].TPRSQLMap)
	}
	if byName["psigene"].TPRSQLMap <= byName["snort"].TPRSQLMap {
		t.Errorf("pSigene TPR %.3f must exceed Snort-ET %.3f", byName["psigene"].TPRSQLMap, byName["snort"].TPRSQLMap)
	}
	if byName["psigene"].TPRSQLMap <= byName["bro"].TPRSQLMap {
		t.Errorf("pSigene TPR %.3f must exceed Bro %.3f", byName["psigene"].TPRSQLMap, byName["bro"].TPRSQLMap)
	}
	// Bro has no false positives; Snort-ET has the most.
	if byName["bro"].FPR != 0 {
		t.Errorf("Bro FPR %.5f, want 0", byName["bro"].FPR)
	}
	for _, other := range []string{"modsec", "psigene"} {
		if byName["snort"].FPR < byName[other].FPR {
			t.Errorf("Snort-ET FPR %.5f must be the highest (vs %s %.5f)", byName["snort"].FPR, other, byName[other].FPR)
		}
	}
	if tbl.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestTable6(t *testing.T) {
	env := testEnv(t)
	out := Table6(env).String()
	if !strings.Contains(out, "Features (biclustering)") {
		t.Fatalf("Table VI incomplete:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4+len(env.Model9.Signatures) {
		t.Fatalf("Table VI missing signature rows:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	env := testEnv(t)
	ascii, svg, res, err := Figure2(env, 200)
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if !strings.Contains(ascii, "heat map") || !strings.HasPrefix(svg, "<svg") {
		t.Fatal("Figure 2 renderings incomplete")
	}
	if len(res.Biclusters) == 0 {
		t.Fatal("no biclusters in Figure 2")
	}
}

func TestFigure3(t *testing.T) {
	env := testEnv(t)
	rocs, err := Figure3(env)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(rocs) != len(env.Model9.Signatures) {
		t.Fatalf("got %d curves for %d signatures", len(rocs), len(env.Model9.Signatures))
	}
	for _, r := range rocs {
		if r.AUC < 0 || r.AUC > 1 {
			t.Fatalf("signature %d AUC=%v", r.SignatureID, r.AUC)
		}
		if len(r.Points) < 2 {
			t.Fatalf("signature %d has %d ROC points", r.SignatureID, len(r.Points))
		}
	}
	// At least one signature must rank well (paper: signature 6 performs
	// well).
	best := 0.0
	for _, r := range rocs {
		if r.AUC > best {
			best = r.AUC
		}
	}
	if best < 0.7 {
		t.Fatalf("best AUC %.3f — signatures should rank attacks well", best)
	}
}

func TestFigure4(t *testing.T) {
	env := testEnv(t)
	rows := Figure4(env)
	if len(rows) != len(env.Model9.Signatures) {
		t.Fatalf("got %d rows", len(rows))
	}
	prev := 0.0
	for i, r := range rows {
		if r.Cumulative+1e-12 < prev {
			t.Fatalf("cumulative TPR decreased at row %d", i)
		}
		if r.Contribution < -1e-12 {
			t.Fatalf("negative contribution at row %d", i)
		}
		prev = r.Cumulative
	}
	// Individual TPRs are sorted descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Individual > rows[i-1].Individual+1e-12 {
			t.Fatalf("rows not sorted by individual TPR")
		}
	}
	// The union of all signatures equals the model's TPR.
	final := rows[len(rows)-1].Cumulative
	if final <= 0 {
		t.Fatal("zero cumulative TPR")
	}
}

func TestExperiment2Incremental(t *testing.T) {
	env := testEnv(t)
	probes := env.SQLMap[:20]
	before := make([][]float64, len(probes))
	for i, r := range probes {
		before[i] = env.Model9.Probabilities(r)
	}
	rows, err := Experiment2(env)
	if err != nil {
		t.Fatalf("Experiment2: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[2].TPR+0.02 < rows[0].TPR {
		t.Fatalf("incremental learning reduced TPR: %.3f -> %.3f", rows[0].TPR, rows[2].TPR)
	}

	// The experiment updates through new models only: a second run on
	// the same env gives the same rows, and Model9 is left as it was.
	again, err := Experiment2(env)
	if err != nil {
		t.Fatalf("second Experiment2: %v", err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatalf("Experiment2 is not repeatable:\nfirst  %+v\nsecond %+v", rows, again)
	}
	for i, r := range probes {
		if after := env.Model9.Probabilities(r); !reflect.DeepEqual(before[i], after) {
			t.Fatalf("Model9 changed on %q: %v -> %v", r.Payload(), before[i], after)
		}
	}
}

func TestExperiment3Perdisci(t *testing.T) {
	env := testEnv(t)
	res, err := Experiment3(env)
	if err != nil {
		t.Fatalf("Experiment3: %v", err)
	}
	if res.FinalSignatures == 0 {
		t.Fatal("no Perdisci signatures")
	}
	// The paper's shape: TPR on unseen samples far below pSigene's and far
	// below its own train-set TPR; FPR at (or near) zero.
	_, tbl := Table5(env)
	_ = tbl
	if res.TPRUnseen >= res.TPRTrain {
		t.Errorf("Perdisci unseen TPR %.3f >= train TPR %.3f", res.TPRUnseen, res.TPRTrain)
	}
	if res.TPRUnseen > 0.5 {
		t.Errorf("Perdisci unseen TPR %.3f — should be far below pSigene's", res.TPRUnseen)
	}
	if res.FPR > 0.001 {
		t.Errorf("Perdisci FPR %.5f, want ~0", res.FPR)
	}
}

func TestExperiment4Performance(t *testing.T) {
	env := testEnv(t)
	rows := Experiment4(env, 300)
	if len(rows) != 3 {
		t.Fatalf("got %d timing rows", len(rows))
	}
	for _, r := range rows {
		if r.Avg <= 0 || r.Max < r.Avg || r.Min > r.Avg {
			t.Fatalf("inconsistent timing for %s: %+v", r.System, r)
		}
	}
	slow := Slowdown(rows)
	// The paper reports pSigene 11X slower than Bro (both ran inside Bro).
	// Our compiled count_all narrows the factor but the ordering must hold.
	// The ModSec ratio does not transfer — our ModSec engine pays Go-regexp
	// NFA costs on CRS-scale patterns that native PCRE does not — so it is
	// reported, not asserted (see EXPERIMENTS.md).
	if x := slow["Bro"]; x <= 1 {
		t.Errorf("pSigene should be slower than Bro, got %.2fX", x)
	}
}

func TestAblations(t *testing.T) {
	env := testEnv(t)
	bin, err := AblationBinaryFeatures(env)
	if err != nil {
		t.Fatalf("binary ablation: %v", err)
	}
	if bin.TPR < 0 || bin.TPR > 1 {
		t.Fatalf("binary ablation TPR=%v", bin.TPR)
	}
	glob, err := AblationGlobalLR(env)
	if err != nil {
		t.Fatalf("global LR ablation: %v", err)
	}
	if glob.TPR < 0 || glob.TPR > 1 {
		t.Fatalf("global ablation TPR=%v", glob.TPR)
	}
	sweep, err := ThresholdSweep(env, []float64{0.2, 0.8})
	if err != nil {
		t.Fatalf("ThresholdSweep: %v", err)
	}
	if len(sweep) != 2 {
		t.Fatalf("sweep rows=%d", len(sweep))
	}
	// Lower threshold detects at least as much.
	if sweep[0].TPR < sweep[1].TPR {
		t.Fatalf("threshold sweep not monotone: %.3f < %.3f", sweep[0].TPR, sweep[1].TPR)
	}
}

func TestAblationLinkage(t *testing.T) {
	env := testEnv(t)
	rows, err := AblationLinkage(env)
	if err != nil {
		t.Fatalf("AblationLinkage: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 linkages", len(rows))
	}
	for _, r := range rows {
		if r.TPR < 0 || r.TPR > 1 || r.FPR < 0 || r.FPR > 1 {
			t.Fatalf("out-of-range rates: %+v", r)
		}
	}
	// The paper's UPGMA choice should not be dominated outright by single
	// linkage (which chains badly on this kind of data).
	if rows[0].TPR+0.25 < rows[1].TPR {
		t.Errorf("average linkage TPR %.3f far below single %.3f", rows[0].TPR, rows[1].TPR)
	}
}
