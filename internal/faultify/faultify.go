// Package faultify is a deterministic, seeded fault-injection middleware
// for the portal simulators. pSigene's first phase is a three-month crawl
// of flaky public sites, so the crawler's resilience machinery (retries,
// backoff, circuit breakers, quarantine, checkpointing) needs an upstream
// that misbehaves on demand — reproducibly, so the chaos tests are golden
// tests rather than flaky ones.
//
// The injector wraps any http.Handler. Whether a request is faulted is a
// pure function of (seed, request key, per-key attempt number): the key is
// "METHOD path?query", so the schedule is independent of request ordering,
// host, and port, and a crawl killed and resumed against the same server
// replays the same faults. Each afflicted key fails its first Repeats
// attempts with its assigned fault class and succeeds afterwards (Repeats
// < 0 means it never recovers), which models both transient and hard
// upstream failures.
//
// The package deliberately uses no wall clock and no math/rand — it is
// under psigenelint's walltime/randsource checks — so every schedule is
// replayable from the seed alone.
package faultify

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"

	"psigene/internal/resilience"
)

// Class is one fault class.
type Class int

// Fault classes, in schedule order. The cumulative-rate walk in Plan uses
// this order, so it is part of the deterministic contract.
const (
	// None passes the request through untouched.
	None Class = iota
	// Err500 answers 500 Internal Server Error.
	Err500
	// RateLimit answers 429 Too Many Requests with a Retry-After header.
	RateLimit
	// Hang never answers: the handler blocks until the client gives up
	// (request-context cancellation), modeling a stalled upstream.
	Hang
	// Reset aborts the connection without writing a response (the net/http
	// ErrAbortHandler path), modeling a TCP reset.
	Reset
	// Truncate advertises the full Content-Length, writes half the body,
	// and aborts the connection — a mid-transfer failure.
	Truncate
	// Garble serves a 200 whose body is deterministically mangled into
	// malformed HTML/JSON (closing tags and braces cut off).
	Garble
)

var classNames = map[Class]string{
	None:      "none",
	Err500:    "500",
	RateLimit: "429",
	Hang:      "hang",
	Reset:     "reset",
	Truncate:  "truncate",
	Garble:    "garble",
}

// String names the class for stats and logs.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// Classes returns the fault classes in schedule order.
func Classes() []Class {
	return []Class{Err500, RateLimit, Hang, Reset, Truncate, Garble}
}

// Config tunes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives the per-key fault assignment. Same seed, same schedule.
	Seed int64
	// Rates maps each fault class to the fraction of request keys it
	// afflicts, e.g. {Err500: 0.05, Garble: 0.05}. Fractions are of the
	// key space, not of requests: an afflicted key faults its first
	// Repeats attempts and then recovers.
	Rates map[Class]float64
	// Repeats is how many attempts per key the assigned fault fires on
	// before the key recovers. 0 means 1; negative means the key never
	// recovers (a hard failure, exercising quarantine).
	Repeats int
	// RetryAfter is the value of the Retry-After header on RateLimit
	// responses, in seconds. 0 means 1.
	RetryAfter int
}

// Uniform spreads a total fault rate evenly across all fault classes.
func Uniform(total float64) map[Class]float64 {
	classes := Classes()
	out := make(map[Class]float64, len(classes))
	for _, c := range classes {
		out[c] = total / float64(len(classes))
	}
	return out
}

// Stats is a snapshot of an injector's activity.
type Stats struct {
	// Requests counts every request seen; Passed those served untouched.
	Requests, Passed int
	// Injected counts injected faults per class.
	Injected map[Class]int
}

// Total sums injected faults across classes.
func (s Stats) Total() int {
	n := 0
	for _, c := range Classes() {
		n += s.Injected[c]
	}
	return n
}

// String renders the snapshot as "requests=N passed=M 500=a 429=b ...".
func (s Stats) String() string {
	var b bytes.Buffer
	b.WriteString("requests=" + strconv.Itoa(s.Requests) + " passed=" + strconv.Itoa(s.Passed))
	for _, c := range Classes() {
		if s.Injected[c] > 0 {
			b.WriteString(" " + c.String() + "=" + strconv.Itoa(s.Injected[c]))
		}
	}
	return b.String()
}

// Injector decides, deterministically, which requests fault and how.
type Injector struct {
	cfg     Config
	classes []Class
	cum     []float64 // cumulative rate thresholds, aligned with classes

	mu       sync.Mutex
	attempts map[string]int
	injected map[Class]int
	requests int
	passed   int
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	if cfg.Repeats == 0 {
		cfg.Repeats = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 1
	}
	in := &Injector{
		cfg:      cfg,
		attempts: make(map[string]int),
		injected: make(map[Class]int),
	}
	// Fixed class order: the cumulative walk must not depend on map
	// iteration order.
	total := 0.0
	for _, c := range Classes() {
		r := cfg.Rates[c]
		if r <= 0 {
			continue
		}
		total += r
		in.classes = append(in.classes, c)
		in.cum = append(in.cum, total)
	}
	return in
}

// Plan returns the fault class assigned to a request key ("METHOD
// path?query"), or None. The assignment is a pure function of the seed and
// the key, so schedules are replayable and order-independent.
func (in *Injector) Plan(key string) Class {
	if len(in.classes) == 0 {
		return None
	}
	u := resilience.UnitFloat(resilience.HashKey(in.cfg.Seed, key))
	for i, c := range in.classes {
		if u < in.cum[i] {
			return c
		}
	}
	return None
}

// Snapshot returns current stats.
func (in *Injector) Snapshot() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	inj := make(map[Class]int, len(in.injected))
	for c, n := range in.injected {
		inj[c] = n
	}
	return Stats{Requests: in.requests, Passed: in.passed, Injected: inj}
}

// Key builds the schedule key for a request.
func Key(r *http.Request) string {
	return r.Method + " " + r.URL.RequestURI()
}

// Wrap returns a handler that serves next through the fault schedule.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := Key(r)
		class := in.Plan(key)

		in.mu.Lock()
		in.attempts[key]++
		attempt := in.attempts[key]
		in.requests++
		if class != None && (in.cfg.Repeats < 0 || attempt <= in.cfg.Repeats) {
			in.injected[class]++
		} else {
			in.passed++
			class = None
		}
		in.mu.Unlock()

		switch class {
		case None:
			next.ServeHTTP(w, r)
		case Err500:
			http.Error(w, "injected fault: internal server error", http.StatusInternalServerError)
		case RateLimit:
			w.Header().Set("Retry-After", strconv.Itoa(in.cfg.RetryAfter))
			http.Error(w, "injected fault: rate limited", http.StatusTooManyRequests)
		case Hang:
			// Stall until the client gives up; no wall clock involved, so a
			// fake-sleeper test client cancels instantly and a real crawler
			// hits its per-request timeout.
			<-r.Context().Done()
		case Reset:
			panic(http.ErrAbortHandler)
		case Truncate:
			rec := newRecorder()
			next.ServeHTTP(rec, r)
			body := rec.buf.Bytes()
			copyHeader(w.Header(), rec.hdr)
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.status())
			_, _ = w.Write(body[:len(body)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		case Garble:
			rec := newRecorder()
			next.ServeHTTP(rec, r)
			copyHeader(w.Header(), rec.hdr)
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.status())
			_, _ = w.Write(Mangle(rec.buf.Bytes()))
		}
	})
}

// Mangle deterministically corrupts a body into malformed HTML/JSON: the
// tail — closing tags, closing braces — is cut off and replaced with an
// unterminated marker, so HTML loses its </html> and JSON stops parsing.
func Mangle(body []byte) []byte {
	cut := len(body) * 3 / 5
	out := make([]byte, 0, cut+16)
	out = append(out, body[:cut]...)
	return append(out, []byte("\x00<garbled ")...)
}

// recorder buffers the inner handler's response so Truncate and Garble can
// rewrite it.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
