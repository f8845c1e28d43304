package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"psigene/internal/acmatch"
	"psigene/internal/admission"
	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/fleet"
	"psigene/internal/gateway"
	"psigene/internal/httpx"
	"psigene/internal/normalize"
)

// The in-process ladder times each layer of the serving path from outside,
// through its exported entry point, over the same first ladderLen pooled
// requests: one goroutine, ladderPasses passes per layer, one span per
// (layer, pass). A metric is the median over passes; a layer's self time is
// its value minus its children's, so a self term a few percent below zero
// is two separately timed rungs disagreeing, not negative work.
const ladderPasses = 5

// memUpstream answers every proxied request in-process with an empty 200,
// so the gateway and fleet rungs measure the handler, not a socket.
type memUpstream struct{}

func (memUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return nil, err
		}
		if err := r.Body.Close(); err != nil {
			return nil, err
		}
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody, Request: r,
	}, nil
}

// nullWriter is a reusable http.ResponseWriter that keeps only the status,
// so the rungs' allocation counts are the handler's and not a recorder's.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *nullWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
func (w *nullWriter) reset() {
	clear(w.h)
	w.status = 0
}

// passStat is what one pass over the ladder requests measured.
type passStat struct {
	ns            float64 // wall time of the pass
	mallocs, heap uint64  // heap objects and bytes allocated during it
	perCall       []int64 // per-call durations, for the rungs that keep them
}

// timePass runs body once between two memory-stat reads (taken outside the
// timed interval) and records the pass as a span.
func timePass(tr *tracer, name string, pass, parent, calls int, body func()) (passStat, int) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id := tr.begin(name, pass, parent)
	start := time.Now()
	body()
	elapsed := time.Since(start)
	tr.end(id, calls)
	runtime.ReadMemStats(&after)
	return passStat{
		ns:      float64(elapsed),
		mallocs: after.Mallocs - before.Mallocs,
		heap:    after.TotalAlloc - before.TotalAlloc,
	}, id
}

// perOp is the median over passes of f(pass)/calls.
func perOp(passes []passStat, calls int, f func(passStat) float64) float64 {
	return medianOf(passes, f) / float64(calls)
}

func nsOf(p passStat) float64      { return p.ns }
func mallocsOf(p passStat) float64 { return float64(p.mallocs) }
func heapOf(p passStat) float64    { return float64(p.heap) }

// p99Of is the 99th percentile over every per-call duration of every pass.
func p99Of(passes []passStat) float64 {
	var all []int64
	for _, p := range passes {
		all = append(all, p.perCall...)
	}
	return percentile(sortedFloats(all, 1), 99)
}

// httpTemplate is the part of a pooled request's *http.Request that is
// built once per ladder and shared read-only across passes; the request
// itself is rebuilt for every pass because the handler consumes the body.
type httpTemplate struct {
	method, host string
	url          *url.URL
	body         string
}

func newHTTPTemplates(reqs []httpx.Request) ([]httpTemplate, error) {
	out := make([]httpTemplate, len(reqs))
	for i, r := range reqs {
		u, err := url.ParseRequestURI(r.URL())
		if err != nil {
			return nil, fmt.Errorf("bench: pooled request %d: %w", i, err)
		}
		out[i] = httpTemplate{method: r.Method, host: r.Host, url: u, body: r.Body}
	}
	return out, nil
}

// instantiate builds one pass's requests; request i carries caller key
// keys[offset+i], so the caller sequence advances from pass to pass as it
// does on the socket and the limiter LRU sees the same churn.
func instantiate(ts []httpTemplate, keys []uint32, offset int) []*http.Request {
	out := make([]*http.Request, len(ts))
	for i, t := range ts {
		h := http.Header{clientKeyHdr: {callerKey(keys[(offset+i)%len(keys)])}}
		if t.body != "" {
			h["Content-Type"] = []string{"application/x-www-form-urlencoded"}
		}
		r := &http.Request{
			Method: t.method, URL: t.url, Host: t.host, Header: h,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			RemoteAddr: "127.0.0.1:40000", RequestURI: t.url.RequestURI(),
			Body: http.NoBody,
		}
		if t.body != "" {
			r.Body = io.NopCloser(strings.NewReader(t.body))
			r.ContentLength = int64(len(t.body))
		}
		out[i] = r
	}
	return out
}

func newController() *admission.Controller {
	return admission.New(admission.Config{
		QPS: 1000000, MaxCallers: maxCallers, Seed: 1,
		Identity: admission.Identity{Header: clientKeyHdr},
	})
}

func newGateway(model *core.Model) (*gateway.Gateway, error) {
	return gateway.New("http://upstream.invalid", model, gateway.Options{
		Client:    &http.Client{Transport: memUpstream{}},
		Admission: newController(),
	})
}

// serveLadder runs the ladder for one workload and fills layers with the
// per-layer metrics. want carries the oracle's expected statuses; every
// rung that produces a verdict is checked against it.
func serveLadder(model *core.Model, reqs []httpx.Request, want []int, keys []uint32, tr *tracer, parent int, layers map[string]float64) error {
	n := len(reqs)

	// Clock cost: one Now/Since pair, the overhead each per-call duration
	// carries.
	const clockReads = 1 << 20
	start := time.Now()
	var sink time.Duration
	for i := 0; i < clockReads; i++ {
		sink += time.Since(time.Now())
	}
	layers["driver.clock_ns"] = float64(time.Since(start)) / clockReads
	_ = sink

	// Inputs each rung needs, prepared outside every timed interval.
	payloads := make([][]byte, n)
	var payloadBytes int
	for i, r := range reqs {
		payloads[i] = r.AppendPayload(nil)
		payloadBytes += len(payloads[i])
	}
	var nb normalize.Buffer
	normalized := make([][]byte, n)
	for i, p := range payloads {
		normalized[i] = append([]byte(nil), nb.NormalizeBytes(p)...)
	}
	var lits []string
	seen := map[string]bool{}
	for _, f := range model.Features.Features {
		if f.Pattern == "" {
			continue
		}
		ls, ok := feature.RequiredLiterals(f.Pattern)
		if !ok {
			continue
		}
		for _, l := range ls {
			if !seen[l] {
				seen[l] = true
				lits = append(lits, l)
			}
		}
	}
	ac, err := acmatch.New(lits)
	if err != nil {
		return err
	}
	ex, err := feature.NewExtractor(model.Features)
	if err != nil {
		return err
	}
	sc := ex.AcquireScratch()
	defer ex.ReleaseScratch(sc)
	sparseCols := make([][]int, n)
	sparseVals := make([][]float64, n)
	for i, s := range normalized {
		cols, vals := ex.SparseInto(s, sc)
		sparseCols[i] = append([]int(nil), cols...)
		sparseVals[i] = append([]float64(nil), vals...)
	}
	templates, err := newHTTPTemplates(reqs)
	if err != nil {
		return err
	}
	ctrl := newController()
	gw, err := newGateway(model)
	if err != nil {
		return err
	}
	replicas := make([]*gateway.Gateway, 3)
	for i := range replicas {
		if replicas[i], err = newGateway(model); err != nil {
			return err
		}
	}
	front, err := fleet.New(replicas, fleet.Options{Seed: 1, KeyFunc: fleet.HeaderKey(clientKeyHdr)})
	if err != nil {
		return err
	}

	var (
		normP, acP, featP, scoreP, inspP, admP, gwP, fleetP []passStat
		hits, nonzeros, alerts                              int
		preBefore                                           = ex.PrefilterStats()
		mismatch                                            error
	)
	w := &nullWriter{h: make(http.Header)}
	checkStatus := func(layer string, i int) {
		if w.status != want[i] && mismatch == nil {
			mismatch = fmt.Errorf("%s: request %d (%s) answered %d, oracle expects %d", layer, i, reqs[i].URL(), w.status, want[i])
		}
	}
	serve := func(h http.Handler, layer string, batch []*http.Request, durs []int64) {
		for i, r := range batch {
			w.reset()
			t := time.Now()
			h.ServeHTTP(w, r)
			durs[i] = int64(time.Since(t))
			checkStatus(layer, i)
		}
	}

	for pass := 0; pass < ladderPasses; pass++ {
		// fleet.serve > gateway.serve > {admission.check, core.inspect >
		// {normalize, feature.sparse > acmatch.scan, core.score}}: parents
		// run first so children can link to this pass's parent span.
		batch := instantiate(templates, keys, pass*n)
		durs := make([]int64, n)
		ps, fleetID := timePass(tr, "fleet.serve", pass, parent, n, func() { serve(front, "fleet.serve", batch, durs) })
		ps.perCall = durs
		fleetP = append(fleetP, ps)

		batch = instantiate(templates, keys, pass*n)
		durs = make([]int64, n)
		ps, gwID := timePass(tr, "gateway.serve", pass, fleetID, n, func() { serve(gw, "gateway.serve", batch, durs) })
		ps.perCall = durs
		gwP = append(gwP, ps)

		batch = instantiate(templates, keys, pass*n)
		ps, _ = timePass(tr, "admission.check", pass, gwID, n, func() {
			for _, r := range batch {
				if d := ctrl.Check(r); d.Verdict != admission.Allow && mismatch == nil {
					mismatch = fmt.Errorf("admission.check: caller %q not allowed: %v", d.Key, d.Verdict)
				}
			}
		})
		admP = append(admP, ps)

		durs = make([]int64, n)
		alerts = 0
		ps, inspID := timePass(tr, "core.inspect", pass, gwID, n, func() {
			for i, r := range reqs {
				t := time.Now()
				v := model.Inspect(r)
				durs[i] = int64(time.Since(t))
				if v.Alert {
					alerts++
				}
				if v.Alert != (want[i] == http.StatusForbidden) && mismatch == nil {
					mismatch = fmt.Errorf("core.inspect: request %d (%s) alert=%v, oracle expects status %d", i, r.URL(), v.Alert, want[i])
				}
			}
		})
		ps.perCall = durs
		inspP = append(inspP, ps)

		ps, _ = timePass(tr, "normalize", pass, inspID, n, func() {
			for _, p := range payloads {
				nb.NormalizeBytes(p)
			}
		})
		normP = append(normP, ps)

		nonzeros = 0
		ps, featID := timePass(tr, "feature.sparse", pass, inspID, n, func() {
			for _, s := range normalized {
				cols, _ := ex.SparseInto(s, sc)
				nonzeros += len(cols)
			}
		})
		featP = append(featP, ps)

		hits = 0
		ps, _ = timePass(tr, "acmatch.scan", pass, featID, n, func() {
			for _, s := range normalized {
				ac.Scan(s, func(int32) { hits++ })
			}
		})
		acP = append(acP, ps)

		var probSum float64
		ps, _ = timePass(tr, "core.score", pass, inspID, n, func() {
			for i := range sparseCols {
				for _, s := range model.Signatures {
					probSum += s.ProbabilitySparse(sparseCols[i], sparseVals[i])
				}
			}
		})
		scoreP = append(scoreP, ps)
		_ = probSum
	}
	if mismatch != nil {
		return mismatch
	}

	pre := ex.PrefilterStats()
	evaluated := float64(pre.Evaluated - preBefore.Evaluated)
	skipped := float64(pre.Skipped - preBefore.Skipped)
	samples := float64(pre.Samples - preBefore.Samples)

	norm := perOp(normP, n, nsOf)
	scan := perOp(acP, n, nsOf)
	sparse := perOp(featP, n, nsOf)
	score := perOp(scoreP, n, nsOf)
	inspect := perOp(inspP, n, nsOf)
	check := perOp(admP, n, nsOf)
	gserve := perOp(gwP, n, nsOf)
	fserve := perOp(fleetP, n, nsOf)

	layers["normalize.ns_per_op"] = norm
	layers["normalize.bytes_per_op"] = float64(payloadBytes) / float64(n)
	layers["normalize.allocs_per_op"] = perOp(normP, n, mallocsOf)
	layers["acmatch.scan_ns_per_op"] = scan
	layers["acmatch.hits_per_op"] = float64(hits) / float64(n)
	layers["feature.sparse_ns_per_op"] = sparse
	layers["feature.self_ns_per_op"] = sparse - scan
	layers["feature.nonzeros_per_op"] = float64(nonzeros) / float64(n)
	layers["feature.regex_evaluated_per_op"] = evaluated / samples
	layers["feature.regex_skipped_per_op"] = skipped / samples
	layers["feature.gate_skip_ratio"] = skipped / (evaluated + skipped)
	layers["core.score_ns_per_op"] = score
	layers["core.inspect_ns_per_op"] = inspect
	layers["core.inspect_p99_ns"] = p99Of(inspP)
	layers["core.inspect_self_ns_per_op"] = inspect - norm - sparse - score
	layers["core.inspect_allocs_per_op"] = perOp(inspP, n, mallocsOf)
	layers["core.alert_ratio"] = float64(alerts) / float64(n)
	ast := ctrl.Stats()
	layers["admission.check_ns_per_op"] = check
	layers["admission.allocs_per_op"] = perOp(admP, n, mallocsOf)
	layers["admission.tracked_callers"] = float64(ast.TrackedCallers)
	layers["admission.evictions"] = float64(ast.Evictions)
	layers["gateway.serve_ns_per_op"] = gserve
	layers["gateway.serve_p99_ns"] = p99Of(gwP)
	layers["gateway.self_ns_per_op"] = gserve - inspect - check
	layers["gateway.allocs_per_op"] = perOp(gwP, n, mallocsOf)
	layers["gateway.bytes_per_op"] = perOp(gwP, n, heapOf)
	layers["fleet.serve_ns_per_op"] = fserve
	layers["fleet.front_self_ns_per_op"] = fserve - gserve
	layers["fleet.allocs_per_op"] = perOp(fleetP, n, mallocsOf)
	return nil
}
