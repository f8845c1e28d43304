// Command psigenelint runs the repository's analyzer suite: code
// analyzers enforcing the determinism, parallel-hygiene,
// error-discipline and concurrency invariants (pool escape, atomic
// access, lock order and span, goroutine leaks), and catalog analyzers
// reporting signature-set flaws (duplicate, subsumed and never-matching
// features, redundant case classes, prefilter-opaque patterns that
// defeat the serving fast path, dead signatures) in the compiled feature
// catalog and, with -model, in a trained signature set.
//
//	psigenelint [-json] [-model file] [-corpus n] [-checks a,b]
//	            [-baseline file] [-write-baseline file] [-time] [packages]
//
// Packages are go-style directory patterns relative to the module root
// (default "./..."). The exit status is nonzero when any diagnostic is
// reported. Findings are suppressed in source with
// `//lint:ignore <check> <reason>` on the flagged line or the line above,
// or `//lint:file-ignore <check> <reason>` for a whole file.
//
// With -baseline, findings recorded in the committed baseline file are
// accepted (each entry carries a mandatory reason) and only new findings
// fail the run; entries whose finding no longer exists are reported as
// stale so the baseline shrinks as debt is paid. -write-baseline
// regenerates the file from the current findings, carrying existing
// reasons forward and stamping new entries with a placeholder the loader
// rejects — a human must justify each one before the file can gate CI.
// -time prints per-analyzer wall time to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"psigene/internal/analysis"
	"psigene/internal/core"
	"psigene/internal/feature"
)

func main() {
	findings, err := run(os.Args[1:], "", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psigenelint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// run executes the lint pass and returns the number of findings. root
// overrides module-root discovery (tests point it at fixture modules);
// when empty the root is found by walking up from the working directory
// to the nearest go.mod.
func run(args []string, root string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("psigenelint", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array")
		modelPath = fs.String("model", "", "trained model file to run the signature checks against")
		corpusN   = fs.Int("corpus", analysis.DefaultProbeSamples, "probe-corpus samples per attackgen profile (0 disables corpus checks)")
		seed      = fs.Int64("seed", analysis.DefaultProbeSeed, "probe-corpus generator seed")
		checks    = fs.String("checks", "", "comma-separated check names to report (default all)")
		baseline  = fs.String("baseline", "", "accepted-findings file: only findings not in it fail the run")
		writeBase = fs.String("write-baseline", "", "regenerate the baseline file from current findings and exit")
		timing    = fs.Bool("time", false, "print per-analyzer wall time to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	patterns := fs.Args()

	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			return 0, err
		}
	}
	loadStart := time.Now()
	prog, err := analysis.Load(root)
	if err != nil {
		return 0, err
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "%-12s %8.1fms\n", "load", time.Since(loadStart).Seconds()*1000)
	}
	pkgs := prog.Select(patterns)
	if len(pkgs) == 0 {
		return 0, fmt.Errorf("no packages match %v", patterns)
	}

	var ds []analysis.Diagnostic
	if *timing {
		for _, a := range analysis.CodeAnalyzers() {
			start := time.Now()
			ds = append(ds, prog.RunCode(pkgs, []*analysis.CodeAnalyzer{a})...)
			fmt.Fprintf(os.Stderr, "%-12s %8.1fms\n", a.Name, time.Since(start).Seconds()*1000)
		}
	} else {
		ds = prog.RunCode(pkgs, analysis.CodeAnalyzers())
	}

	// The probe corpus backs both the catalog corpus checks and the
	// -model audit; synthesize it once.
	var corpus []string
	if *corpusN > 0 {
		corpus = analysis.ProbeCorpus(*corpusN, *seed)
	}

	// The catalog checks run whenever the selection includes the feature
	// package (so `psigenelint ./...` always audits the signature
	// catalog, while a scoped run of another package does not).
	if featPkg := prog.Package("internal/feature"); featPkg != nil && selected(pkgs, featPkg) {
		cds := analysis.CheckCatalog(feature.Catalog(), corpus, analysis.FeatureAnchors(prog), 0)
		for _, d := range cds {
			if !prog.Suppressed(d) {
				ds = append(ds, d)
			}
		}
	}

	// The -model audit goes through the same library entrypoint the
	// lifecycle gate uses (deadsig, plus corpus-driven nevermatch and
	// subsumed over the model's observed features).
	if *modelPath != "" {
		m, _, err := core.LoadAny(*modelPath)
		if err != nil {
			return 0, fmt.Errorf("loading model: %w", err)
		}
		ds = append(ds, analysis.AuditModel(m, corpus, *modelPath)...)
	}

	if *checks != "" {
		allow := make(map[string]bool)
		for _, c := range strings.Split(*checks, ",") {
			allow[strings.TrimSpace(c)] = true
		}
		ds = analysis.Filter(ds, allow)
	}
	analysis.SortDiagnostics(ds)

	if *writeBase != "" {
		prev, _ := analysis.ReadBaseline(*writeBase)
		if err := analysis.WriteBaseline(*writeBase, ds, prev); err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "wrote %d baseline entries to %s\n", len(ds), *writeBase)
		return 0, nil
	}

	var stale []analysis.BaselineEntry
	if *baseline != "" {
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			return 0, err
		}
		ds, stale = b.Apply(ds)
	}
	// Stale notices go to stderr: they must not perturb the byte-identical
	// stdout contract or the JSON array, and they are advice, not findings.
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "psigenelint: stale baseline entry (finding fixed, delete it): %s: %s: %s\n", e.File, e.Check, e.Message)
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		if err := enc.Encode(ds); err != nil {
			return 0, err
		}
		return len(ds), nil
	}
	for _, d := range ds {
		fmt.Fprintln(w, d)
	}
	if len(ds) > 0 {
		fmt.Fprintf(w, "%d findings\n", len(ds))
	}
	return len(ds), nil
}

func selected(pkgs []*analysis.Package, want *analysis.Package) bool {
	for _, p := range pkgs {
		if p == want {
			return true
		}
	}
	return false
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
