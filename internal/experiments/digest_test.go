package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/traffic"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/paper.digest from the current code")

const digestPath = "testdata/paper.digest"

// TestPaperDigest pins the paper's outputs at testScale: every number the
// shape tests check loosely is rendered here at full precision and diffed
// line by line against testdata/paper.digest. A change that claims to
// move no number proves it by leaving this file byte-identical; a change
// that moves numbers on purpose regenerates it with -update and shows the
// diff for review.
//
// The digest is amd64-only: Go may fuse multiply-add on arm64, ppc64 and
// s390x, which changes the low bits of the logistic regressions.
func TestPaperDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("paper digest is pinned on amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
	got := renderDigest(t, testEnv(t))
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestPaperDigest -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	section := "(preamble)"
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "## ") {
			section = w
		}
		if g != w {
			t.Fatalf("paper digest differs in section %q at line %d:\nwant %q\ngot  %q\n(rerun with -update if the change is intended)", section, i+1, w, g)
		}
	}
}

// ff renders a float at full precision: the shortest decimal that
// round-trips to the same bits.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderDigest renders the paper outputs of env. It leaves env as it was.
func renderDigest(t *testing.T, env *Env) []byte {
	t.Helper()
	var b bytes.Buffer
	section := func(name string) { fmt.Fprintf(&b, "## %s\n", name) }

	st := env.Model9.Stats
	section("TrainStats")
	fmt.Fprintf(&b, "attacks=%d unique=%d benign=%d candidates=%d observed=%d\n",
		st.AttackSamples, st.UniqueAttackSamples, st.BenignSamples, st.CandidateFeatures, st.ObservedFeatures)
	fmt.Fprintf(&b, "zero=%s one=%s cophenetic=%s\n", ff(st.ZeroFraction), ff(st.OneFraction), ff(st.CopheneticCorrelation))

	section("Table III")
	t3, err := Table3(env)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	b.WriteString(t3.String())

	section("Table V")
	rows, t5 := Table5(env)
	b.WriteString(t5.String())
	for _, r := range rows {
		fmt.Fprintf(&b, "%s sqlmap=%s arachni=%s fpr=%s\n", r.System, ff(r.TPRSQLMap), ff(r.TPRArachni), ff(r.FPR))
	}

	section("Table VI")
	b.WriteString(Table6(env).String())

	section("Figure 3")
	rocs, err := Figure3(env)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	for _, r := range rocs {
		fmt.Fprintf(&b, "signature %d auc=%s points=%d\n", r.SignatureID, ff(r.AUC), len(r.Points))
		for _, p := range r.Points {
			fmt.Fprintf(&b, "  %s %s %s\n", ff(p.Threshold), ff(p.TPR), ff(p.FPR))
		}
	}

	section("Figure 4")
	for _, r := range Figure4(env) {
		fmt.Fprintf(&b, "signature %d individual=%s cumulative=%s contribution=%s\n",
			r.SignatureID, ff(r.Individual), ff(r.Cumulative), ff(r.Contribution))
	}

	section("Experiment 2")
	inc, err := Experiment2(env)
	if err != nil {
		t.Fatalf("Experiment2: %v", err)
	}
	for _, r := range inc {
		fmt.Fprintf(&b, "%s tpr=%s fpr=%s\n", r.Label, ff(r.TPR), ff(r.FPR))
	}

	section("Experiment 3")
	per, err := Experiment3(env)
	if err != nil {
		t.Fatalf("Experiment3: %v", err)
	}
	fmt.Fprintf(&b, "fine=%d filtered=%d signatures=%d unseen=%s train=%s fpr=%s\n",
		per.FineGrainedClusters, per.AfterFiltering, per.FinalSignatures, ff(per.TPRUnseen), ff(per.TPRTrain), ff(per.FPR))

	section("ThresholdSweep")
	sweep, err := ThresholdSweep(env, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	if err != nil {
		t.Fatalf("ThresholdSweep: %v", err)
	}
	for _, r := range sweep {
		fmt.Fprintf(&b, "%s tpr=%s fpr=%s\n", r.Variant, ff(r.TPR), ff(r.FPR))
	}

	section("TuneThresholds")
	validation := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), 301).Requests(200),
		traffic.NewGenerator(302).Requests(2000)...)
	ts, err := env.Model9.TuneThresholds(validation, 0.001)
	if err != nil {
		t.Fatalf("TuneThresholds: %v", err)
	}
	for i, s := range env.Model9.Signatures {
		fmt.Fprintf(&b, "signature %d threshold=%s\n", s.ID, ff(ts[i]))
	}

	// Last, so a sweep or tuning that leaked into Model9 shows here.
	section("model.json")
	dir := filepath.Join(t.TempDir(), "model9")
	if _, err := env.Model9.SaveArtifact(dir, core.Manifest{Version: "model9"}); err != nil {
		t.Fatalf("SaveArtifact: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, core.ModelFile))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	fmt.Fprintf(&b, "sha256=%s bytes=%d\n", hex.EncodeToString(sum[:]), len(raw))
	return b.Bytes()
}
