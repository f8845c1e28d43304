// Command psigene drives the pSigene pipeline end to end.
//
// Subcommands:
//
//	psigene train   -attacks 3000 -benign 10000 -out model.json
//	    Generate (or crawl) a training corpus and produce a signature set.
//	psigene crawl   -portals http://host1,http://host2 -out samples.txt
//	    Crawl cybersecurity portals and write the extracted sample URLs.
//	psigene inspect -model model.json -url "/page.php?id=1'+or+1=1--"
//	    Classify one request with a trained signature set.
//	psigene eval    -model model.json
//	    Evaluate a trained model against generated test sets.
//	psigene export  -model model.json -out psigene.bro
//	    Render the signatures as a Bro 2.x policy script (§III-C).
//	psigene tune    -model model.json -target-fpr 0.0005 -out tuned.json
//	    Pick per-signature thresholds from a validation set (Figure 3).
//	psigene lifecycle -store lifecycle -rounds 3
//	    Run the continuous crawl→retrain→validate→canary lifecycle over a
//	    versioned artifact store (see internal/lifecycle).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/crawl"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/profiling"
	"psigene/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psigene:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (retErr error) {
	const usage = "usage: psigene [-cpuprofile file] [-memprofile file] <train|crawl|inspect|eval|export|tune|lifecycle> [flags]"
	global := flag.NewFlagSet("psigene", flag.ContinueOnError)
	var (
		cpuProfile = global.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = global.String("memprofile", "", "write a heap profile to this file on exit")
	)
	// Parsing stops at the first non-flag argument, so global flags sit
	// before the subcommand and subcommand flags are untouched.
	if err := global.Parse(args); err != nil {
		return err
	}
	args = global.Args()
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	switch args[0] {
	case "train":
		return runTrain(args[1:], w)
	case "crawl":
		return runCrawl(args[1:], w)
	case "inspect":
		return runInspect(args[1:], w)
	case "eval":
		return runEval(args[1:], w)
	case "export":
		return runExport(args[1:], w)
	case "tune":
		return runTune(args[1:], w)
	case "lifecycle":
		return runLifecycle(args[1:], w)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runTrain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var (
		nAttacks = fs.Int("attacks", 3000, "number of attack training samples to generate")
		nBenign  = fs.Int("benign", 10000, "number of benign training requests to generate")
		samples  = fs.String("samples", "", "file of crawled attack sample URLs (one per line) instead of generated attacks")
		portals  = fs.String("portals", "", "comma-separated portal base URLs to crawl for attacks instead of generating")
		seed     = fs.Int64("seed", 1, "RNG seed for generated corpora")
		out      = fs.String("out", "model.json", "output model path")
		par      = fs.Int("parallelism", 0, "training worker count (0 = all cores, 1 = serial); the model is bit-identical either way")
		minSamp  = fs.Int("min-samples", 1, "refuse to train on fewer crawled/loaded attack samples (coverage floor for degraded crawls)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var attacks []httpx.Request
	switch {
	case *portals != "":
		c := crawl.New(crawl.Options{})
		all, results, err := c.CrawlAll(strings.Split(*portals, ","))
		for _, r := range results {
			fmt.Fprintf(w, "crawled %s: %d pages, %d samples%s\n",
				r.Portal, r.PagesFetched, len(r.Samples), healthSuffix(r.Health))
		}
		if err != nil {
			// Degraded portals are expected; train on what survived and let
			// the -min-samples floor decide whether it is enough.
			fmt.Fprintf(w, "crawl degraded: %v\n", err)
		}
		attacks = all
	case *samples != "":
		var err error
		attacks, err = readSampleFile(*samples)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %d samples from %s\n", len(attacks), *samples)
	default:
		attacks = attackgen.NewGenerator(attackgen.CrawlProfile(), *seed).Requests(*nAttacks)
	}
	benign := traffic.NewGenerator(*seed + 1).Requests(*nBenign)

	fmt.Fprintf(w, "training on %d attack and %d benign samples...\n", len(attacks), len(benign))
	model, err := core.Train(attacks, benign, core.Config{Parallelism: *par, MinAttackSamples: *minSamp})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trained %d signatures over %d observed features (of %d candidates)\n",
		len(model.Signatures), model.Stats.ObservedFeatures, model.Stats.CandidateFeatures)
	fmt.Fprintf(w, "matrix sparsity: %.1f%% zeros, %.1f%% ones; cophenetic correlation %.3f\n",
		model.Stats.ZeroFraction*100, model.Stats.OneFraction*100, model.Stats.CopheneticCorrelation)
	for _, s := range model.Signatures {
		fmt.Fprintf(w, "  signature %d: %.0f samples, %d->%d features\n",
			s.ID, s.SampleWeight, s.BiclusterFeatures, len(s.Features))
	}
	if err := model.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(w, "model written to %s\n", *out)
	return nil
}

func readSampleFile(path string) ([]httpx.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []httpx.Request
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := httpx.ParseURL(line)
		if err != nil || req.RawQuery == "" {
			continue
		}
		req.Malicious = true
		req.Tool = "file"
		out = append(out, req)
	}
	return out, sc.Err()
}

func runCrawl(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	var (
		portals   = fs.String("portals", "", "comma-separated portal base URLs (required)")
		out       = fs.String("out", "samples.txt", "output file of sample URLs")
		maxPages  = fs.Int("max-pages", 200, "page budget per portal")
		retries   = fs.Int("max-retries", 4, "retry budget per page (negative disables)")
		ckpt      = fs.String("checkpoint", "", "checkpoint file (single portal only); written every -checkpoint-every pages")
		ckptEvery = fs.Int("checkpoint-every", 10, "pages between checkpoints when -checkpoint is set")
		resume    = fs.Bool("resume", false, "resume from the -checkpoint file instead of starting over")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *portals == "" {
		return fmt.Errorf("crawl: -portals is required")
	}
	list := strings.Split(*portals, ",")
	opts := crawl.Options{MaxPages: *maxPages, MaxRetries: *retries}
	if *ckpt != "" {
		if len(list) != 1 {
			return fmt.Errorf("crawl: -checkpoint needs exactly one portal, got %d", len(list))
		}
		opts.CheckpointEvery = *ckptEvery
		path := *ckpt
		opts.Checkpoint = func(cp *crawl.Checkpoint) error {
			return crawl.SaveCheckpoint(cp, path)
		}
	} else if *resume {
		return fmt.Errorf("crawl: -resume requires -checkpoint")
	}
	c := crawl.New(opts)

	var (
		all     []httpx.Request
		results []*crawl.Result
		err     error
	)
	if *resume {
		cp, lerr := crawl.LoadCheckpoint(*ckpt)
		if lerr != nil {
			return lerr
		}
		fmt.Fprintf(w, "resuming %s crawl of %s: %d samples, %d pages already done\n",
			cp.Kind, cp.Portal, len(cp.Samples), cp.Health.PagesFetched)
		var res *crawl.Result
		res, err = c.Resume(cp)
		if res != nil {
			all, results = res.Samples, []*crawl.Result{res}
		}
	} else {
		all, results, err = c.CrawlAll(list)
	}
	if err != nil {
		// Partial results are the normal outcome against degraded portals;
		// report the damage and keep what was collected.
		fmt.Fprintf(w, "crawl degraded: %v\n", err)
	}
	for _, r := range results {
		fmt.Fprintf(w, "%s: %d pages, %d samples, CVEs: %s%s\n",
			r.Portal, r.PagesFetched, len(r.Samples), strings.Join(r.CVEs, " "), healthSuffix(r.Health))
	}
	if len(all) == 0 {
		return fmt.Errorf("crawl: no samples collected from any portal")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, s := range all {
		fmt.Fprintf(f, "http://%s%s\n", s.Host, s.URL())
	}
	fmt.Fprintf(w, "%d unique samples written to %s\n", len(all), *out)
	return nil
}

// healthSuffix renders a crawl Health as a compact annotation, empty when
// the crawl saw no trouble at all.
func healthSuffix(h crawl.Health) string {
	if h.Retries == 0 && h.PagesSkipped == 0 && h.RateLimited == 0 &&
		h.Malformed == 0 && h.BreakerTrips == 0 {
		return ""
	}
	return fmt.Sprintf(" [retries %d, rate-limited %d, malformed %d, quarantined %d, breaker trips %d]",
		h.Retries, h.RateLimited, h.Malformed, h.PagesSkipped, h.BreakerTrips)
}

func runInspect(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "model.json", "trained model path")
		url       = fs.String("url", "", "request URL to classify (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("inspect: -url is required")
	}
	model, _, err := core.LoadAny(*modelPath)
	if err != nil {
		return err
	}
	req, err := httpx.ParseURL(*url)
	if err != nil {
		return err
	}
	verdict := model.Inspect(req)
	probs := model.Probabilities(req)
	if verdict.Alert {
		fmt.Fprintf(w, "ALERT: %s\n", strings.Join(verdict.Matched, " "))
	} else {
		fmt.Fprintln(w, "clean")
	}
	for i, s := range model.Signatures {
		fmt.Fprintf(w, "  signature %d: P(attack) = %.6f\n", s.ID, probs[i])
	}
	return nil
}

func runEval(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "model.json", "trained model path")
		nAttacks  = fs.Int("attacks", 1000, "test attacks per tool")
		nBenign   = fs.Int("benign", 10000, "benign test requests")
		seed      = fs.Int64("seed", 100, "test-set seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, _, err := core.LoadAny(*modelPath)
	if err != nil {
		return err
	}
	for _, tool := range []struct {
		name    string
		profile attackgen.Profile
	}{
		{"sqlmap", attackgen.SQLMapProfile()},
		{"arachni", attackgen.ArachniProfile()},
		{"vega", attackgen.VegaProfile()},
	} {
		reqs := attackgen.NewGenerator(tool.profile, *seed).Requests(*nAttacks)
		r := ids.Evaluate(model, reqs)
		fmt.Fprintf(w, "%-8s TPR = %6.2f%%  (%d/%d)\n", tool.name, r.TPR()*100, r.TP, r.TP+r.FN)
	}
	benign := traffic.NewGenerator(*seed + 9).Requests(*nBenign)
	r := ids.Evaluate(model, benign)
	fmt.Fprintf(w, "%-8s FPR = %7.4f%% (%d/%d)\n", "benign", r.FPR()*100, r.FP, r.FP+r.TN)
	return nil
}

func runExport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "model.json", "trained model path")
		out       = fs.String("out", "psigene.bro", "output Bro policy script")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, _, err := core.LoadAny(*modelPath)
	if err != nil {
		return err
	}
	script := model.ExportBro()
	if err := os.WriteFile(*out, []byte(script), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d signatures exported to %s (%d bytes)\n", len(model.Signatures), *out, len(script))
	return nil
}

func runTune(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "model.json", "trained model path")
		out       = fs.String("out", "tuned.json", "output model path")
		targetFPR = fs.Float64("target-fpr", 0.0005, "per-signature false-positive budget")
		nAttacks  = fs.Int("attacks", 500, "validation attacks to generate")
		nBenign   = fs.Int("benign", 5000, "validation benign requests to generate")
		seed      = fs.Int64("seed", 300, "validation-set seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model, _, err := core.LoadAny(*modelPath)
	if err != nil {
		return err
	}
	validation := append(
		attackgen.NewGenerator(attackgen.SQLMapProfile(), *seed).Requests(*nAttacks),
		traffic.NewGenerator(*seed+1).Requests(*nBenign)...)
	thresholds, err := model.TuneThresholds(validation, *targetFPR)
	if err != nil {
		return err
	}
	for i, s := range model.Signatures {
		fmt.Fprintf(w, "signature %d: threshold %.6f\n", s.ID, thresholds[i])
	}
	if err := model.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(w, "tuned model written to %s\n", *out)
	return nil
}
