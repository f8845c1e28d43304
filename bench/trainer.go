package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"psigene/internal/cluster"
	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/normalize"
)

// The write side of every run happens in a child of the bench binary, so
// its peak RSS is the training pipeline's own and the driver that later
// times the daemon starts from a small heap: generate the workload's
// training corpora and labelled pool, then trainReps times
// { core.Train -> SaveArtifact -> LoadArtifact -> evalPasses times
// ids.ParallelEvaluate }. The daemon serves the last artifact written. An
// evaluation takes a fraction of a second (serve-benign: 0.26 s), so every
// repetition takes evalPasses samples of it and every run the same number.
const (
	trainReps  = 3
	evalPasses = 3
)

// trainSpec is the child's input, passed as JSON in one argument.
type trainSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke"`
	Dir      string `json:"dir"`
	Trace    bool   `json:"trace"`
}

// trainRep times one repetition of the write-side cycle.
type trainRep struct {
	TrainS float64 `json:"train_s"`
	SaveMS float64 `json:"save_ms"`
	LoadMS float64 `json:"load_ms"`
	// EvalMS holds one entry per evaluation pass.
	EvalMS []float64 `json:"eval_ms"`
}

// trainOutcome is the child's output, printed as one JSON line.
type trainOutcome struct {
	Reps             []trainRep `json:"reps"`
	Artifact         string     `json:"artifact"`
	ArtifactBytes    int64      `json:"artifact_bytes"`
	Signatures       int        `json:"signatures"`
	ObservedFeatures int        `json:"observed_features"`
	EvalRequests     int        `json:"eval_requests"`
	TP, FP, TN, FN   int
	PeakRSSMB        float64 `json:"peak_rss_mb"`
	// Layers carries the retrain ladder (trace runs only).
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// trainerMain is the child role.
func trainerMain(spec trainSpec) (*trainOutcome, error) {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	var tr *tracer
	if spec.Trace {
		tr = &tracer{}
	}
	out := &trainOutcome{Layers: map[string]float64{}}
	nAttacks, nBenign := w.trainScale(spec.Smoke)

	root := tr.begin("trainer", 0, 0)
	t0 := time.Now()
	id := tr.begin("attackgen.generate", 0, root)
	attacks := trainingAttacks(nAttacks)
	tr.end(id, len(attacks))
	t1 := time.Now()
	id = tr.begin("traffic.generate", 0, root)
	benign := trainingBenign(nBenign)
	tr.end(id, len(benign))
	out.Layers["attackgen.generate_ms"] = ms(t1.Sub(t0))
	out.Layers["traffic.generate_ms"] = ms(time.Since(t1))
	tests := w.build(spec.Seed, spec.Smoke)
	out.EvalRequests = len(tests)

	for rep := 0; rep < trainReps; rep++ {
		var r trainRep
		start := time.Now()
		id = tr.begin("core.train", rep, root)
		m, err := core.Train(attacks, benign, core.Config{})
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		r.TrainS = time.Since(start).Seconds()

		dir := filepath.Join(spec.Dir, fmt.Sprintf("artifact-%d", rep))
		start = time.Now()
		id = tr.begin("core.save", rep, root)
		_, err = m.SaveArtifact(dir, core.Manifest{Version: fmt.Sprintf("bench-%d", rep)})
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("save artifact: %w", err)
		}
		r.SaveMS = ms(time.Since(start))

		start = time.Now()
		id = tr.begin("core.load", rep, root)
		loaded, _, err := core.LoadArtifact(dir)
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("load artifact: %w", err)
		}
		r.LoadMS = ms(time.Since(start))

		var res ids.EvalResult
		for pass := 0; pass < evalPasses; pass++ {
			var took time.Duration
			res, took = evaluate(tr, rep*evalPasses+pass, root, loaded, tests)
			r.EvalMS = append(r.EvalMS, ms(took))
		}

		out.Reps = append(out.Reps, r)
		out.Artifact = dir
		out.Signatures, out.ObservedFeatures = len(m.Signatures), m.Stats.ObservedFeatures
		out.TP, out.FP, out.TN, out.FN = res.TP, res.FP, res.TN, res.FN
	}
	size, err := dirBytes(out.Artifact)
	if err != nil {
		return nil, err
	}
	out.ArtifactBytes = size
	// Peak RSS is read before the ladder below allocates its own copies.
	if out.PeakRSSMB, err = procPeakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	if spec.Trace {
		if err := trainLadder(attacks, out.Layers, tr, root); err != nil {
			return nil, err
		}
	}
	tr.end(root, 1)
	if tr != nil {
		out.Spans = tr.spans
	}
	return out, nil
}

// evaluate times one ids.ParallelEvaluate of the pool.
func evaluate(tr *tracer, pass, parent int, det ids.Detector, tests []httpx.Request) (ids.EvalResult, time.Duration) {
	start := time.Now()
	id := tr.begin("ids.evaluate", pass, parent)
	res := ids.ParallelEvaluate(det, tests, 0)
	tr.end(id, len(tests))
	return res, time.Since(start)
}

// trainLadder times the phases core.Train runs, through the same exported
// calls, so train time can be attributed: whatever the pipeline spends
// beyond these (pruning, leftover assignment, the benign matrix and the
// logistic regressions) is core.train_self_ms.
func trainLadder(attacks []httpx.Request, layers map[string]float64, tr *tracer, parent int) error {
	start := time.Now()
	id := tr.begin("normalize.corpus", 0, parent)
	norm := make([]string, len(attacks))
	for i, r := range attacks {
		norm[i] = normalize.Normalize(r.Payload())
	}
	tr.end(id, len(norm))
	layers["normalize.corpus_ms"] = ms(time.Since(start))

	uniq, weights := feature.Dedupe(norm)
	catalog := feature.Catalog()
	ex, err := feature.NewExtractor(catalog)
	if err != nil {
		return err
	}
	start = time.Now()
	id = tr.begin("feature.featurize", 0, parent)
	full, err := ex.SparseMatrixParallel(uniq, 0)
	tr.end(id, len(uniq))
	if err != nil {
		return err
	}
	layers["feature.featurize_ms"] = ms(time.Since(start))
	layers["feature.matrix_nnz"] = float64(full.NNZ())

	observed, obsSet, _, err := feature.PruneUnobserved(full, catalog)
	if err != nil {
		return err
	}
	if observed, _, _, err = feature.PruneDuplicateColumns(observed, obsSet); err != nil {
		return err
	}
	// The same strided subsample core.Train hands to the quadratic HAC
	// step (Config.MaxClusterSamples defaults to 2500).
	const maxClusterSamples = 2500
	if observed.Rows() > maxClusterSamples {
		var idx []int
		var w []float64
		stride := observed.Rows() / maxClusterSamples
		for i := 0; i < observed.Rows() && len(idx) < maxClusterSamples; i += stride {
			idx = append(idx, i)
			w = append(w, weights[i])
		}
		if observed, err = observed.SelectRows(idx); err != nil {
			return err
		}
		weights = w
	}
	start = time.Now()
	id = tr.begin("cluster.run", 0, parent)
	_, err = cluster.Run(observed, weights, cluster.Options{})
	tr.end(id, observed.Rows())
	if err != nil {
		return err
	}
	layers["cluster.run_ms"] = ms(time.Since(start))
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// runTrainer re-executes the bench binary in the trainer role and decodes
// its outcome.
func runTrainer(spec trainSpec) (*trainOutcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-trainer", string(arg))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("trainer child: %w", err)
	}
	var out trainOutcome
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("trainer child output: %w", err)
	}
	return &out, nil
}
