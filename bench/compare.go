package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: direction
// and regression bound of every end-to-end metric.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a: positive when
// b moved against the metric's better direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse the second is and the bound, and returns an error when
// any metric is out of bound, either run was incorrect, or two runs of the
// same seed disagree on the (exact) detection counts.
func compareFiles(specPath, aPath, bPath string, w io.Writer) error {
	var spec benchmarkSpec
	var a, b runFile
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	bad := 0
	fmt.Fprintf(w, "a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n", aPath, a.Env.Commit, a.Seed, bPath, b.Env.Commit, b.Seed)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-14s missing from %s\n", ra.Workload, bPath)
			bad++
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-14s incorrect run (a correct=%v, b correct=%v)\n", ra.Workload, ra.Correct, rb.Correct)
			bad++
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			d := worsening(va, vb, m.Better)
			flag := ""
			if d > m.Bound {
				flag = "  OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", ra.Workload, m.Name, va, vb, 100*d, 100*m.Bound, flag)
		}
		if a.Seed == b.Seed && a.Smoke == b.Smoke {
			flag := ""
			if ra.Detect != rb.Detect {
				flag = "  DIFFERS (must repeat exactly for a seed)"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %14s %14s%s\n", ra.Workload, "detect TP/FP/TN/FN",
				fmt.Sprintf("%d/%d/%d/%d", ra.Detect.TP, ra.Detect.FP, ra.Detect.TN, ra.Detect.FN),
				fmt.Sprintf("%d/%d/%d/%d", rb.Detect.TP, rb.Detect.FP, rb.Detect.TN, rb.Detect.FN), flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparison(s) out of bound", bad)
	}
	return nil
}
