package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"psigene/internal/core"
	"psigene/internal/httpx"
)

// Run shape. Every run is one model lifecycle: the trainer child (see
// trainer.go), then setupCycles daemon starts of which the last stays up,
// a warm-up, and one unbroken measured phase cut into windows equal windows.
//
// Each serve metric is the median of its per-window values: no window is
// chosen by what it measured, so a stall that comes back every few seconds
// (a GC cycle, a lock convoy) moves the metric, and a dip of the sandbox
// that covers fewer than half the windows does not. What the phase would
// have measured had the host stayed calm is kept as an ungated diagnostic
// (driver.calm_capacity_rps: the calmWindows highest-throughput windows,
// pooled).
const (
	setupCycles = 31
	windows     = 12
	calmWindows = windows / 3
	reloads     = 5
	// maxSpansPerWindow bounds the per-request spans a trace file keeps.
	maxSpansPerWindow = 250
)

// config is one invocation's settings.
type config struct {
	buildDir  string // .bench_build under the checkout root: binaries, artifacts, traces
	daemonBin string
	seed      int64
	seconds   float64 // length of the measured phase
	trace     bool
	smoke     bool
	conns     int
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds / windows * float64(time.Second))
}

// warmup fills the daemon's pools, the upstream keep-alive set and the hot
// head of the caller LRU before the first window.
func (c config) warmup() time.Duration {
	return time.Duration(min(2, c.seconds/3) * float64(time.Second))
}

// windowStat is one measured window.
type windowStat struct {
	Seconds     float64 `json:"seconds"`
	Responses   int     `json:"responses"`
	CapacityRPS float64 `json:"capacity_rps"`
	P50us       float64 `json:"latency_p50_us"`
	CPUus       float64 `json:"cpu_us_per_req"`
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Workload     string            `json:"workload"`
	Correct      bool              `json:"correct"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	ErrorRate    float64           `json:"error_rate"`
	FirstFailure string            `json:"first_failure,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	// Detect is the confusion matrix of the served model on the labelled
	// pool; it is exact for a seed, so two runs must agree on it.
	Detect struct {
		TP, FP, TN, FN int
	} `json:"detect"`
	// P99us is the 99th percentile latency over every sample of the phase:
	// reported with its sample count, not gated (see README).
	P99us      float64      `json:"latency_p99_us"`
	P99Samples int          `json:"latency_p99_samples"`
	SetupS     []float64    `json:"setup_samples_s"`
	Train      []trainRep   `json:"train_reps"`
	Windows    []windowStat `json:"windows"`
}

// oracleStatuses computes the expected status of every pooled request with
// the in-process oracle: 403 when the loaded artifact alerts, else 200.
func oracleStatuses(model *core.Model, pool []httpx.Request) []int {
	want := make([]int, len(pool))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(pool)/workers, (w+1)*len(pool)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				want[i] = http.StatusOK
				if model.Inspect(pool[i]).Alert {
					want[i] = http.StatusForbidden
				}
			}
		}()
	}
	wg.Wait()
	return want
}

// selfCPU is the driver's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// boundary is a daemon CPU reading taken at a window edge.
type boundary struct {
	at  time.Duration // since the phase began
	cpu time.Duration
}

// measuredPhase runs the warm-up and the measured windows as one unbroken
// closed-loop run and cuts it into windows afterwards, at the instants the
// daemon's CPU counter was read.
func measuredPhase(cfg config, d *daemon, t *target, start int, tl *tally) ([]windowStat, [][]sample, int, error) {
	edges := make([]time.Duration, windows+1)
	for k := range edges {
		edges[k] = cfg.warmup() + time.Duration(k)*cfg.window()
	}
	marks := make([]boundary, len(edges))
	var markErr error
	begin := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, e := range edges {
			time.Sleep(time.Until(begin.Add(e)))
			cpu, err := d.cpu()
			if err != nil && markErr == nil {
				markErr = err
			}
			marks[k] = boundary{at: time.Since(begin), cpu: cpu}
		}
	}()
	samples, next, err := runLoad(d.data, t, cfg.conns, start, begin, edges[windows], 0, tl)
	wg.Wait()
	if err == nil {
		err = markErr
	}
	if err != nil {
		return nil, nil, next, err
	}
	stats := make([]windowStat, windows)
	perWindow := make([][]sample, windows)
	for _, s := range samples {
		for k := 0; k < windows; k++ {
			if s.end > int64(marks[k].at) && s.end <= int64(marks[k+1].at) {
				perWindow[k] = append(perWindow[k], s)
				break
			}
		}
	}
	for k := range stats {
		n := len(perWindow[k])
		if n == 0 {
			return nil, nil, next, fmt.Errorf("bench: window %d completed no request", k)
		}
		secs := (marks[k+1].at - marks[k].at).Seconds()
		stats[k] = windowStat{
			Seconds:     secs,
			Responses:   n,
			CapacityRPS: float64(n) / secs,
			P50us:       percentile(latencies(perWindow[k], 1e3), 50),
			CPUus:       float64(marks[k+1].cpu-marks[k].cpu) / float64(time.Microsecond) / float64(n),
		}
	}
	return stats, perWindow, next, nil
}

// calmCapacity pools the calmWindows windows with the highest throughput:
// responses per second over the calm third of the phase.
func calmCapacity(stats []windowStat) float64 {
	byRate := append([]windowStat(nil), stats...)
	sort.SliceStable(byRate, func(a, b int) bool { return byRate[a].CapacityRPS > byRate[b].CapacityRPS })
	var responses int
	var seconds float64
	for _, w := range byRate[:min(calmWindows, len(byRate))] {
		responses += w.Responses
		seconds += w.Seconds
	}
	return float64(responses) / seconds
}

// latencies returns the samples' latencies ascending, scaled by div.
func latencies(samples []sample, div float64) []float64 {
	lats := make([]int64, len(samples))
	for i, s := range samples {
		lats[i] = s.lat
	}
	return sortedFloats(lats, div)
}

// rttP50 drives addr closed loop on one connection and returns the median
// round trip in microseconds.
func rttP50(addr string, t *target, start int, dur time.Duration, tl *tally) (float64, int, error) {
	samples, next, err := runLoad(addr, t, 1, start, time.Now(), dur, 0, tl)
	if err != nil {
		return 0, next, err
	}
	return percentile(latencies(samples, 1e3), 50), next, nil
}

// probeDaemon measures the daemon from outside after the phase, one thing
// at a time: the unloaded round trip through it and straight to the stub,
// an open-loop pass, and the reload of its own artifact.
func probeDaemon(cfg config, d *daemon, stub string, t *target, next int, capacity float64, tl *tally, layers map[string]float64) error {
	probe := cfg.warmup()
	rtt, next, err := rttP50(d.data, t, next, probe, tl)
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}
	layers["psigened.rtt_p50_us"] = rtt
	direct := &target{wire: t.wire, keys: t.keys}
	if layers["driver.direct_rtt_p50_us"], _, err = rttP50(stub, direct, 0, probe, &tally{}); err != nil {
		return fmt.Errorf("direct rtt probe: %w", err)
	}

	// Open loop, ungated: a paced generator on this few cores is a
	// diagnostic of the generator as much as of the daemon.
	rate := min(1000, 0.4*capacity)
	open, _, err := runLoad(d.data, t, cfg.conns, next, time.Now(), probe, rate, tl)
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	lags := make([]int64, len(open))
	for i, s := range open {
		lags[i] = s.lag
	}
	lats := latencies(open, 1e3)
	layers["driver.openloop_rate_rps"] = rate
	layers["driver.openloop_p50_us"] = percentile(lats, 50)
	layers["driver.openloop_p99_us"] = percentile(lats, 99)
	layers["driver.openloop_lag_p99_us"] = percentile(sortedFloats(lags, 1e3), 99)

	var reloadMS []float64
	for i := 0; i < reloads; i++ {
		took, err := d.reload()
		if err != nil {
			return err
		}
		reloadMS = append(reloadMS, ms(took))
	}
	layers["psigened.reload_ms"] = median(reloadMS)
	return nil
}

// runWorkload runs one workload end to end and returns its result; the
// error return is for harness failures, a wrong answer from the system
// under test comes back as Correct == false.
func runWorkload(cfg config, w workload, tr *tracer) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name}
	e2e := map[string]float64{}
	layers := map[string]float64{}
	root := tr.begin(w.name, 0, 0)
	defer func() { tr.end(root, 1) }()

	work, err := os.MkdirTemp(cfg.buildDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Write side, in its own process.
	trained, err := runTrainer(trainSpec{Workload: w.name, Seed: cfg.seed, Smoke: cfg.smoke, Dir: work, Trace: cfg.trace})
	if err != nil {
		return nil, err
	}
	tr.adopt(trained.Spans, root)
	res.Train = trained.Reps
	res.Detect.TP, res.Detect.FP, res.Detect.TN, res.Detect.FN = trained.TP, trained.FP, trained.TN, trained.FN
	// Median of the repetitions (the first also pays for faulting in a
	// fresh heap) and of every evaluation pass of every repetition.
	var evals []float64
	for _, r := range trained.Reps {
		evals = append(evals, r.EvalMS...)
	}
	evalMS := median(evals)
	e2e["train_s"] = medianOf(trained.Reps, func(r trainRep) float64 { return r.TrainS })
	e2e["eval_krps"] = float64(trained.EvalRequests) / evalMS
	e2e["train_rss_peak_mb"] = trained.PeakRSSMB
	for k, v := range trained.Layers {
		layers[k] = v
	}
	layers["core.train_ms"] = e2e["train_s"] * 1e3
	layers["core.train_self_ms"] = layers["core.train_ms"] - layers["normalize.corpus_ms"] - layers["feature.featurize_ms"] - layers["cluster.run_ms"]
	layers["core.save_ms"] = medianOf(trained.Reps, func(r trainRep) float64 { return r.SaveMS })
	layers["core.load_ms"] = medianOf(trained.Reps, func(r trainRep) float64 { return r.LoadMS })
	layers["core.artifact_bytes"] = float64(trained.ArtifactBytes)
	layers["core.signatures"] = float64(trained.Signatures)
	layers["core.observed_features"] = float64(trained.ObservedFeatures)
	layers["ids.evaluate_ms"] = evalMS
	e2e["detect_tpr"] = float64(trained.TP) / float64(max(trained.TP+trained.FN, 1))
	layers["ids.detect_fpr"] = float64(trained.FP) / float64(max(trained.FP+trained.TN, 1))

	// Pool, oracle, wire bytes.
	pool := w.build(cfg.seed, cfg.smoke)
	oracle, _, err := core.LoadArtifact(trained.Artifact)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	t := &target{want: oracleStatuses(oracle, pool), keys: callerKeys(cfg.seed), wire: make([]wireRequest, len(pool))}
	var tp, fp int
	for i, r := range pool {
		if t.wire[i], err = buildWire(r); err != nil {
			return nil, err
		}
		if t.want[i] == http.StatusForbidden {
			if r.Malicious {
				tp++
			} else {
				fp++
			}
		}
	}
	fail := func(format string, args ...any) {
		res.Failed++
		if res.FirstFailure == "" {
			res.FirstFailure = fmt.Sprintf(format, args...)
		}
	}
	if tp != trained.TP || fp != trained.FP {
		fail("oracle disagrees with the trainer's evaluation of the same artifact: TP %d vs %d, FP %d vs %d", tp, trained.TP, fp, trained.FP)
	}

	// Daemon set-up, setupCycles times; the last one serves the phase.
	stub, stopStub, err := startStub()
	if err != nil {
		return nil, err
	}
	defer stopStub()
	var d *daemon
	tl := &tally{}
	for cycle := 0; cycle < setupCycles; cycle++ {
		tl = &tally{}
		if d, err = startDaemon(cfg.daemonBin, trained.Artifact, "http://"+stub); err != nil {
			return nil, err
		}
		if err = firstProxied200(d, tl); err != nil {
			_ = d.stop()
			return nil, err
		}
		ready := time.Now()
		tr.record("psigened.start", cycle, root, d.started, ready, 1)
		res.SetupS = append(res.SetupS, ready.Sub(d.started).Seconds())
		if cycle < setupCycles-1 {
			if err = d.stop(); err != nil {
				return nil, err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	e2e["setup_s"] = median(res.SetupS)

	// Measured phase.
	driverCPU := selfCPU()
	phaseStart := time.Now()
	stats, perWindow, next, err := measuredPhase(cfg, d, t, 0, tl)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w\n%s", err, d.output())
	}
	driverCPU = selfCPU() - driverCPU
	res.Windows = stats
	var responses int
	var all []sample
	for k, st := range stats {
		responses += st.Responses
		all = append(all, perWindow[k]...)
	}
	sorted := latencies(all, 1e3)
	res.P99us, res.P99Samples = percentile(sorted, 99), len(sorted)
	e2e["capacity_rps"] = medianOf(stats, func(w windowStat) float64 { return w.CapacityRPS })
	e2e["latency_p50_us"] = medianOf(stats, func(w windowStat) float64 { return w.P50us })
	e2e["cpu_us_per_req"] = medianOf(stats, func(w windowStat) float64 { return w.CPUus })
	if e2e["rss_peak_mb"], err = d.peakRSSMB(); err != nil {
		return nil, err
	}

	if cfg.trace {
		// Spans of the serve phase, derived from the samples the untraced
		// run keeps too: the socket path carries no extra tracing work.
		for k := range perWindow {
			ws := perWindow[k]
			first, last := ws[0].end-ws[0].lat, ws[0].end
			for _, s := range ws {
				first, last = min(first, s.end-s.lat), max(last, s.end)
			}
			win := tr.record("serve.window", k, root, phaseStart.Add(time.Duration(first)), phaseStart.Add(time.Duration(last)), len(ws))
			for _, s := range ws[:min(len(ws), maxSpansPerWindow)] {
				end := phaseStart.Add(time.Duration(s.end))
				tr.record("psigened.request", k, win, end.Add(-time.Duration(s.lat)), end, 1)
			}
		}
		p999 := percentile(sorted, 99.9)
		layers["driver.latency_p99_us"] = res.P99us
		layers["driver.latency_p99_samples"] = float64(res.P99Samples)
		layers["driver.latency_p999_us"] = p999
		layers["driver.latency_p999_beyond"] = float64(beyond(sorted, p999))
		layers["driver.cpu_us_per_req"] = float64(driverCPU) / float64(time.Microsecond) / float64(responses)
		layers["driver.traced_capacity_rps"] = e2e["capacity_rps"]
		layers["driver.calm_capacity_rps"] = calmCapacity(stats)

		if err := probeDaemon(cfg, d, stub, t, next, e2e["capacity_rps"], tl, layers); err != nil {
			return nil, err
		}
	}

	// Cross-check: the daemon's own counters must match what the driver saw.
	snap, err := d.statz()
	if err != nil {
		return nil, fmt.Errorf("statz: %w", err)
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if tl.failed > 0 {
		res.Failed += tl.failed
		if res.FirstFailure == "" {
			res.FirstFailure = tl.firstFailure
		}
	}
	if snap.Forwarded != tl.ok || snap.Blocked != tl.blocked || snap.Shed != 0 {
		fail("/-/statz disagrees with the driver: forwarded %d vs %d 200s, blocked %d vs %d 403s, shed %d", snap.Forwarded, tl.ok, snap.Blocked, tl.blocked, snap.Shed)
	}
	res.Attempted = tl.ok + tl.blocked + tl.failed
	layers["psigened.forwarded"] = float64(snap.Forwarded)
	layers["psigened.blocked"] = float64(snap.Blocked)
	layers["psigened.shed"] = float64(snap.Shed)
	layers["psigened.score_p50_us"] = float64(snap.ScoringLatency.P50) / float64(time.Microsecond)
	layers["psigened.score_p99_us"] = float64(snap.ScoringLatency.P99) / float64(time.Microsecond)
	if snap.Admission != nil {
		layers["psigened.tracked_callers"] = float64(snap.Admission.TrackedCallers)
		layers["psigened.evictions"] = float64(snap.Admission.Evictions)
	}

	if cfg.trace {
		n := min(scaled(w.ladderLen, 64, cfg.smoke), len(pool))
		id := tr.begin("ladder", 0, root)
		err := serveLadder(oracle, pool[:n], t.want[:n], t.keys, tr, id, layers)
		tr.end(id, n)
		if err != nil {
			fail("ladder: %v", err)
		} else {
			layers["psigened.transport_self_us"] = layers["psigened.rtt_p50_us"] - layers["gateway.serve_ns_per_op"]/1e3
		}
	}

	var missing []string
	if res.EndToEnd, missing = collect(endToEndMetrics, e2e); len(missing) > 0 {
		return nil, fmt.Errorf("bench: end-to-end metrics not produced: %v", missing)
	}
	if cfg.trace {
		if res.PerLayer, missing = collect(perLayerMetrics, layers); len(missing) > 0 && res.Failed == 0 {
			return nil, fmt.Errorf("bench: per-layer metrics not produced: %v", missing)
		}
	}
	res.Correct = res.Failed == 0
	res.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// traceFile names where a run's spans go.
func traceFile(cfg config, out, workload string) string {
	if out != "" {
		return out + ".trace.json"
	}
	return filepath.Join(cfg.buildDir, fmt.Sprintf("trace-%s-%d.json", workload, cfg.seed))
}
