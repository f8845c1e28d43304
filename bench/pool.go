package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/traffic"
)

// The model is a constant of the benchmark, like the paper's one crawled
// corpus: its training corpora come from trainSeed, never from -seed. The
// signature count and the feature set swing with the training seed (7 to 9
// signatures, train time 1.2 to 1.5 s at the CLI defaults), which would put
// a 25 % spread on every metric across seeds and hide real regressions.
// -seed draws everything the trained system is then judged on: the request
// pools, their order, and the caller keys.
const trainSeed = 1

// Admission sizing: the caller LRU holds maxCallers states and the zipfian
// caller population is twice that, so the LRU evicts within one run. (The
// daemon's default of 65,536 needs more requests than a run sends.)
const (
	maxCallers   = 8192
	callerSpace  = 2 * maxCallers
	callerZipfS  = 1.1
	keySequence  = 1 << 18
	clientKeyHdr = "X-Client-Key"
)

// workload is one traffic shape plus the training scale behind it.
type workload struct {
	name, why string
	// trainAttacks/trainBenign size the corpora core.Train runs on.
	trainAttacks, trainBenign int
	// ladderLen is how many pooled requests one in-process ladder pass
	// covers, chosen so a core.inspect pass takes roughly half a second.
	ladderLen int
	// build generates the labelled request pool for a seed.
	build func(seed int64, smoke bool) []httpx.Request
}

// workloads lists the benchmark's traffic shapes in BENCHMARK.json order.
var workloads = []workload{
	{
		name:         "serve-benign",
		why:          "99% benign short GETs: the literal gate skips ~91% of regexes, so net/http, the proxy leg, admission and gateway bookkeeping do nearly all the work and scoring little",
		trainAttacks: 3000, trainBenign: 10000, ladderLen: 8192,
		build: func(seed int64, smoke bool) []httpx.Request {
			n := scaled(65536, 256, smoke)
			attacks := n / 100
			return interleave(
				traffic.NewGenerator(seed+10).Requests(n-attacks),
				attackgen.NewGenerator(attackgen.SQLMapProfile(), seed+11).Requests(attacks))
		},
	},
	{
		name:         "serve-scan",
		why:          "100% scanner attacks (SQLMap/Arachni/Vega 2:1:1): payloads defeat the literal gate and ~93% are blocked, so residual regex and LR scoring dominate and the upstream leg idles",
		trainAttacks: 3000, trainBenign: 10000, ladderLen: 8192,
		build: func(seed int64, smoke bool) []httpx.Request {
			n := scaled(32768, 256, smoke)
			return interleave(
				attackgen.NewGenerator(attackgen.SQLMapProfile(), seed+11).Requests(n/2),
				interleave(
					attackgen.NewGenerator(attackgen.ArachniProfile(), seed+12).Requests(n/4),
					attackgen.NewGenerator(attackgen.VegaProfile(), seed+13).Requests(n/4)))
		},
	},
	{
		name:         "serve-bigpost",
		why:          "8 KiB POST forms, all blocked (count features add up over any long benign body): per-byte work - body read, normalize, literal scan, regexes on long inputs - instead of per-request work",
		trainAttacks: 3000, trainBenign: 10000, ladderLen: 128,
		build: func(seed int64, smoke bool) []httpx.Request {
			return bigPosts(seed, scaled(256, 32, smoke))
		},
	},
	{
		name:         "retrain",
		why:          "the write side: paper-scale training corpora and scanner test sets, so featurisation, biclustering and LR dominate; serving speed bought with heavier model construction shows here as a cost",
		trainAttacks: 30000, trainBenign: 60000, ladderLen: 8192,
		build: func(seed int64, smoke bool) []httpx.Request {
			div := 1
			if smoke {
				div = 200
			}
			attacks := interleave(
				attackgen.NewGenerator(attackgen.SQLMapProfile(), seed+11).Requests(7200/div),
				interleave(
					attackgen.NewGenerator(attackgen.ArachniProfile(), seed+12).Requests(4289/div),
					attackgen.NewGenerator(attackgen.VegaProfile(), seed+13).Requests(4289/div)))
			return interleave(traffic.NewGenerator(seed+10).Requests(200000/div), attacks)
		},
	},
}

func scaled(full, small int, smoke bool) int {
	if smoke {
		return small
	}
	return full
}

// trainScale returns the workload's training-corpus sizes; -smoke trains
// every workload at 600/1,500.
func (w workload) trainScale(smoke bool) (attacks, benign int) {
	if smoke {
		return 600, 1500
	}
	return w.trainAttacks, w.trainBenign
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trainingAttacks and trainingBenign generate the fixed training corpora:
// what `psigene train -seed 1` would generate at that scale.
func trainingAttacks(n int) []httpx.Request {
	return attackgen.NewGenerator(attackgen.CrawlProfile(), trainSeed).Requests(n)
}

func trainingBenign(n int) []httpx.Request {
	return traffic.NewGenerator(trainSeed + 1).Requests(n)
}

// interleave spreads the shorter slice evenly through the longer one,
// keeping each slice's own order.
func interleave(major, minor []httpx.Request) []httpx.Request {
	if len(minor) > len(major) {
		major, minor = minor, major
	}
	total := len(major) + len(minor)
	out := make([]httpx.Request, 0, total)
	mi, ma := 0, 0
	for i := 0; i < total; i++ {
		if mi < len(minor) && (i+1)*len(minor) > mi*total {
			out = append(out, minor[mi])
			mi++
			continue
		}
		out = append(out, major[ma])
		ma++
	}
	return out
}

const bigPostBytes = 8 << 10

// bigPosts builds n form POSTs whose bodies are benign query strings
// concatenated as f<k>_<name>=<value> fields until they reach bigPostBytes;
// every 20th body ends in the parameters of one SQLMap attack.
func bigPosts(seed int64, n int) []httpx.Request {
	benign := traffic.NewGenerator(seed + 30)
	attacks := attackgen.NewGenerator(attackgen.SQLMapProfile(), seed+31)
	out := make([]httpx.Request, n)
	var body strings.Builder
	for i := range out {
		body.Reset()
		for k := 0; body.Len() < bigPostBytes; k++ {
			for _, p := range httpx.ParseParams(benign.Request().RawQuery) {
				if body.Len() > 0 {
					body.WriteByte('&')
				}
				fmt.Fprintf(&body, "f%d_%s=%s", k, p.Name, p.Value)
			}
		}
		req := httpx.Request{
			Method: "POST", Host: "www.university.edu", Path: "/forms/submit.php",
			Tool: "benign",
		}
		if i%20 == 19 {
			body.WriteByte('&')
			body.WriteString(attacks.Sample().Request.RawQuery)
			req.Malicious, req.Tool = true, "sqlmap"
		}
		req.Body = body.String()
		out[i] = req
	}
	return out
}

// callerKeys draws the zipfian caller sequence the driver and the ladder
// cycle through: request i of a run carries key "c<keys[i%len]>".
func callerKeys(seed int64) []uint32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed+20)), callerZipfS, 1, callerSpace-1)
	keys := make([]uint32, keySequence)
	for i := range keys {
		keys[i] = uint32(z.Uint64())
	}
	return keys
}

func callerKey(k uint32) string { return "c" + strconv.FormatUint(uint64(k), 10) }
