// Command bench is the repository benchmark (see BENCHMARK.json and
// bench/README.md): it trains a signature set in a child process, drives
// the built cmd/psigened binary over loopback on four traffic shapes, checks
// every response against an in-process oracle, and prints every metric by
// name with its unit.
//
//	bash bench/run.sh -workload serve-benign -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload all -seed 1 -out a.json
//	bash bench/run.sh -compare a.json b.json
//
// It touches no package of the repository: every layer is measured from
// outside, through the daemon's sockets and the packages' exported calls.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo records where a result file was measured.
type envInfo struct {
	Commit           string `json:"commit"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	NumCPU           int    `json:"nproc"`
	DriverGOMAXPROCS int    `json:"driver_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	Kernel           string `json:"kernel"`
}

func readEnv(root string) envInfo {
	e := envInfo{
		Commit:           "unknown",
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		DriverGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: runtime.NumCPU(), // startDaemon sets it explicitly
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	return e
}

// runFile is the result file -out writes and -compare reads.
type runFile struct {
	Env         envInfo           `json:"env"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Smoke       bool              `json:"smoke"`
	Connections int               `json:"connections"`
	WarmupS     float64           `json:"warmup_s"`
	WindowS     float64           `json:"window_s"`
	Windows     int               `json:"windows"`
	Results     []*workloadResult `json:"results"`
}

// findRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module psigene.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module psigene\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the psigene checkout (no go.mod declaring module psigene above the working directory)")
		}
		dir = parent
	}
}

// contractLine is the last line of standard output for one workload.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(res *workloadResult, trace bool) error {
	fmt.Printf("workload %s: attempted %d, failed %d, error_rate %g\n", res.Workload, res.Attempted, res.Failed, res.ErrorRate)
	defs, values := endToEndMetrics, res.EndToEnd
	if trace {
		defs, values = perLayerMetrics, res.PerLayer
		for _, d := range endToEndMetrics {
			fmt.Printf("  %-32s %14.4f %s\n", d.name, res.EndToEnd[d.name].Value, d.unit)
		}
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %14.4f %s\n", d.name, values[d.name].Value, d.unit)
	}
	fmt.Printf("  latency_p99_us (ungated) %.1f us over %d samples\n", res.P99us, res.P99Samples)
	fmt.Printf("  detect: TP %d FP %d TN %d FN %d\n", res.Detect.TP, res.Detect.FP, res.Detect.TN, res.Detect.FN)
	if res.FirstFailure != "" {
		fmt.Printf("  FIRST FAILURE: %s\n", res.FirstFailure)
	}
	line, err := json.Marshal(contractLine{
		Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: values,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: serve-benign, serve-scan, serve-bigpost, retrain, or all")
		seed         = flag.Int64("seed", 1, "workload seed: request pools, their order and caller keys derive from it")
		seconds      = flag.Float64("seconds", 12, "length of the measured phase, cut into 12 equal windows")
		trace        = flag.Int("trace", 0, "1: also run the per-layer ladder, print per-layer metrics and write the span file")
		out          = flag.String("out", "", "write the result file here (and spans to <out>.trace.json)")
		smoke        = flag.Bool("smoke", false, "tiny pools, a 1.5 s phase, 600/1,500 training: a functional check, not a measurement")
		compareMode  = flag.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
		trainer      = flag.String("trainer", "", "internal: run the trainer child role with this JSON spec")
	)
	flag.Parse()
	var err error
	switch {
	case *trainer != "":
		err = trainerRole(*trainer)
	case *compareMode:
		err = compare(flag.Args())
	default:
		err = run(*workloadName, *seed, *seconds, *trace != 0, *out, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// connsPerCPU sizes the closed loop: enough keep-alive connections that
// no core of the sandbox idles between a response and the next request.
// With one connection per core a fifth of the CPU sat idle, every idle
// stretch ended in a cross-CPU wake-up, and those cost whatever the
// hypervisor makes of them that minute: capacity then ranged over 13-17 %
// between identical runs, against 6 % at four connections per core.
const connsPerCPU = 4

var errIncorrect = errors.New("a response or counter disagreed with the oracle")

// trainerRole is the child side of runTrainer: run the spec, print the
// outcome as one JSON line.
func trainerRole(specJSON string) error {
	var spec trainSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return err
	}
	outcome, err := trainerMain(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(outcome)
}

func compare(files []string) error {
	if len(files) != 2 {
		return errors.New("-compare needs two result files")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	return compareFiles(filepath.Join(root, "BENCHMARK.json"), files[0], files[1], os.Stdout)
}

func run(workloadName string, seed int64, seconds float64, trace bool, out string, smoke bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	var selected []workload
	if workloadName == "all" {
		selected = workloads
	} else if w, ok := findWorkload(workloadName); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	if smoke {
		seconds = 1.5
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg := config{
		buildDir: filepath.Join(root, ".bench_build"),
		seed:     seed, seconds: seconds, trace: trace, smoke: smoke,
		conns: connsPerCPU * runtime.NumCPU(),
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return err
	}
	if cfg.daemonBin, err = buildDaemon(root, filepath.Join(cfg.buildDir, "bin")); err != nil {
		return err
	}
	var tr *tracer
	if trace {
		tr = &tracer{}
	}
	file := runFile{
		Env: readEnv(root), Seed: seed, Trace: trace, Smoke: smoke,
		Connections: cfg.conns, WarmupS: cfg.warmup().Seconds(), WindowS: cfg.window().Seconds(), Windows: windows,
	}
	incorrect := false
	for _, w := range selected {
		res, err := runWorkload(cfg, w, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		file.Results = append(file.Results, res)
		if err := printResult(res, trace); err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if trace {
		if err := tr.write(traceFile(cfg, out, workloadName)); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
