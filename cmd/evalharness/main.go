// Command evalharness regenerates the paper's tables and figures.
//
// Usage:
//
//	evalharness -experiment all
//	evalharness -experiment table5 -train-attacks 6000 -benign-tests 20000
//	evalharness -experiment figure2 -out heatmap.svg
//
// Experiments: table1 table2 table3 table4 table5 table6 figure2 figure3
// figure4 incremental perdisci perf ablations all. Serving and training
// cost is measured by bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"psigene/internal/experiments"
	"psigene/internal/profiling"
	"psigene/internal/report"
)

// allExperiments is what "-experiment all" runs, in order; any other
// name is rejected before the environment is trained.
var allExperiments = []string{"table1", "table2", "table3", "table4", "table5", "table6",
	"figure2", "figure3", "figure4", "incremental", "perdisci", "perf", "ablations"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evalharness:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	fs := flag.NewFlagSet("evalharness", flag.ContinueOnError)
	var (
		exp        = fs.String("experiment", "all", "which experiment to run ("+strings.Join(allExperiments, ", ")+", all)")
		out        = fs.String("out", "", "write figure artifacts (SVG/CSV) to this file")
		paperScale = fs.Bool("paper-scale", false, "use the paper's full corpus sizes (slow)")

		trainAttacks = fs.Int("train-attacks", 0, "override training attack count")
		trainBenign  = fs.Int("train-benign", 0, "override training benign count")
		benignTests  = fs.Int("benign-tests", 0, "override benign test count")
		seed         = fs.Int64("seed", 0, "override RNG seed")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	scale := experiments.DefaultScale()
	if *paperScale {
		scale = experiments.PaperScale()
	}
	if *trainAttacks > 0 {
		scale.TrainAttacks = *trainAttacks
	}
	if *trainBenign > 0 {
		scale.TrainBenign = *trainBenign
	}
	if *benignTests > 0 {
		scale.BenignTests = *benignTests
	}
	if *seed > 0 {
		scale.Seed = *seed
	}

	sel := strings.ToLower(*exp)
	if sel != "all" && !slices.Contains(allExperiments, sel) {
		return fmt.Errorf("unknown experiment %q", sel)
	}
	needsEnv := sel != "table1" && sel != "table2" && sel != "table4"

	var env *experiments.Env
	if needsEnv {
		fmt.Fprintf(w, "setting up: %d train attacks, %d train benign, %d+%d test attacks, %d benign tests (seed %d)\n",
			scale.TrainAttacks, scale.TrainBenign, scale.SQLMapTests, scale.ArachniTests+scale.VegaTests, scale.BenignTests, scale.Seed)
		var err error
		env, err = experiments.Setup(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "pSigene trained: %d signatures over %d observed features (cophenetic %.3f)\n\n",
			len(env.Model9.Signatures), env.Model9.Stats.ObservedFeatures, env.Model9.Stats.CopheneticCorrelation)
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			tbl, err := experiments.Table1(scale.Seed)
			if err != nil {
				return err
			}
			tbl.Render(w)
		case "table2":
			experiments.Table2().Render(w)
		case "table3":
			tbl, err := experiments.Table3(env)
			if err != nil {
				return err
			}
			tbl.Render(w)
		case "table4":
			experiments.Table4().Render(w)
		case "table5":
			_, tbl := experiments.Table5(env)
			tbl.Render(w)
		case "table6":
			experiments.Table6(env).Render(w)
		case "figure2":
			ascii, svg, res, err := experiments.Figure2(env, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Figure 2: %d biclusters selected, cophenetic correlation %.3f\n",
				len(res.Biclusters), res.CopheneticCorrelation)
			fmt.Fprintln(w, ascii)
			fmt.Fprintln(w, "sample-axis "+report.RenderDendrogram(res.RowDendrogram, 24, 50))
			fmt.Fprintln(w, "feature-axis "+report.RenderDendrogram(res.ColDendrogram, 24, 50))
			if *out != "" {
				if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(w, "SVG written to %s\n", *out)
			}
		case "figure3":
			rocs, err := experiments.Figure3(env)
			if err != nil {
				return err
			}
			tbl := &report.Table{Title: "Figure 3: per-signature ROC", Headers: []string{"Signature", "AUC", "Points"}}
			for _, r := range rocs {
				tbl.AddRow(fmt.Sprint(r.SignatureID), report.F(r.AUC, 4), fmt.Sprint(len(r.Points)))
			}
			tbl.Render(w)
			if *out != "" {
				if strings.HasSuffix(*out, ".svg") {
					var series []report.Series
					for _, r := range rocs {
						s := report.Series{Name: fmt.Sprintf("Signature %d (AUC %.2f)", r.SignatureID, r.AUC)}
						for _, p := range r.Points {
							s.X = append(s.X, p.FPR)
							s.Y = append(s.Y, p.TPR)
						}
						series = append(series, s)
					}
					svg := report.LinePlotSVG("ROC Curves for Generalized Signatures",
						"False Positive Rate", "True Positive Rate", series, 0.05, 1)
					if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
						return err
					}
					fmt.Fprintf(w, "SVG written to %s\n", *out)
					break
				}
				f, err := os.Create(*out)
				if err != nil {
					return err
				}
				defer f.Close()
				for _, r := range rocs {
					fmt.Fprintf(f, "# signature %d (AUC %.4f)\n", r.SignatureID, r.AUC)
					rows := make([][]float64, len(r.Points))
					for i, p := range r.Points {
						rows[i] = []float64{p.FPR, p.TPR, p.Threshold}
					}
					if err := report.WriteCSV(f, []string{"fpr", "tpr", "threshold"}, rows); err != nil {
						return err
					}
				}
				fmt.Fprintf(w, "CSV written to %s\n", *out)
			}
		case "figure4":
			rows := experiments.Figure4(env)
			tbl := &report.Table{Title: "Figure 4: cumulative TPR by signature", Headers: []string{"Signature", "Individual TPR", "Cumulative TPR", "Contribution"}}
			for _, r := range rows {
				tbl.AddRow(fmt.Sprint(r.SignatureID), report.Pct(r.Individual, 2), report.Pct(r.Cumulative, 2), report.Pct(r.Contribution, 2))
			}
			tbl.Render(w)
			if *out != "" && strings.HasSuffix(*out, ".svg") {
				var bars []report.Bar
				for _, r := range rows {
					bars = append(bars, report.Bar{Label: fmt.Sprint(r.SignatureID), Value: r.Cumulative, Overlay: r.Individual})
				}
				svg := report.BarChartSVG("Cumulative TPR for the pSigene signature set", bars)
				if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(w, "SVG written to %s\n", *out)
			}
		case "incremental":
			rows, err := experiments.Experiment2(env)
			if err != nil {
				return err
			}
			tbl := &report.Table{Title: "Experiment 2: incremental learning", Headers: []string{"Training set", "TPR (SQLmap)", "FPR"}}
			for _, r := range rows {
				tbl.AddRow(r.Label, report.Pct(r.TPR, 2), report.Pct(r.FPR, 4))
			}
			tbl.Render(w)
		case "perdisci":
			res, err := experiments.Experiment3(env)
			if err != nil {
				return err
			}
			tbl := &report.Table{Title: "Experiment 3: comparison to Perdisci's approach", Headers: []string{"Metric", "Value"}}
			tbl.AddRow("fine-grained clusters", fmt.Sprint(res.FineGrainedClusters))
			tbl.AddRow("clusters after filtering", fmt.Sprint(res.AfterFiltering))
			tbl.AddRow("final signatures", fmt.Sprint(res.FinalSignatures))
			tbl.AddRow("TPR on unseen (SQLmap)", report.Pct(res.TPRUnseen, 2))
			tbl.AddRow("TPR on training set", report.Pct(res.TPRTrain, 2))
			tbl.AddRow("FPR", report.Pct(res.FPR, 4))
			tbl.Render(w)
		case "perf":
			rows := experiments.Experiment4(env, 2000)
			tbl := &report.Table{Title: "Experiment 4: per-request processing time", Headers: []string{"System", "Min", "Avg", "Max"}}
			for _, r := range rows {
				tbl.AddRow(r.System, r.Min.String(), r.Avg.String(), r.Max.String())
			}
			tbl.Render(w)
			for sys, x := range experiments.Slowdown(rows) {
				fmt.Fprintf(w, "pSigene slowdown vs %s: %.1fX\n", sys, x)
			}
		case "ablations":
			tbl := &report.Table{Title: "Ablations", Headers: []string{"Variant", "TPR (SQLmap)", "FPR"}}
			if r, err := experiments.AblationBinaryFeatures(env); err == nil {
				tbl.AddRow(r.Variant, report.Pct(r.TPR, 2), report.Pct(r.FPR, 4))
			} else {
				tbl.AddRow("binary features", "error: "+err.Error(), "")
			}
			if r, err := experiments.AblationGlobalLR(env); err == nil {
				tbl.AddRow(r.Variant, report.Pct(r.TPR, 2), report.Pct(r.FPR, 4))
			} else {
				tbl.AddRow("single global LR", "error: "+err.Error(), "")
			}
			if rows, err := experiments.AblationLinkage(env); err == nil {
				for _, r := range rows {
					tbl.AddRow(r.Variant, report.Pct(r.TPR, 2), report.Pct(r.FPR, 4))
				}
			} else {
				tbl.AddRow("linkage ablation", "error: "+err.Error(), "")
			}
			for _, r := range experiments.ThresholdSweep(env, []float64{0.1, 0.3, 0.5, 0.7, 0.9}) {
				tbl.AddRow(r.Variant, report.Pct(r.TPR, 2), report.Pct(r.FPR, 4))
			}
			tbl.Render(w)
		}
		fmt.Fprintln(w)
		return nil
	}

	if sel == "all" {
		for _, name := range allExperiments {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(sel)
}
