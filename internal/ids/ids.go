// Package ids implements the detection engines the paper evaluates:
// deterministic signature matching (Snort/Bro semantics: any one matching
// enabled rule raises an alert) and anomaly scoring (ModSecurity semantics:
// matching rules contribute weighted scores against a threshold). The
// pSigene engine itself lives in internal/core and implements the same
// Detector interface, so all systems plug into one evaluation harness.
package ids

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"psigene/internal/httpx"
	"psigene/internal/normalize"
	"psigene/internal/ruleset"
)

// Verdict is the outcome of inspecting one request.
type Verdict struct {
	// Alert says whether the detector fired.
	Alert bool
	// Score is the anomaly score (scoring engines) or the number of
	// matching rules (deterministic engines).
	Score int
	// Matched lists the matching rule or signature identifiers.
	Matched []string
}

// Detector is anything that can inspect a request: a rule engine, the
// pSigene signature set, or the Perdisci baseline.
type Detector interface {
	// Name identifies the system in reports.
	Name() string
	// Inspect classifies a single request.
	Inspect(req httpx.Request) Verdict
}

// InspectSession is a single-goroutine serving context checked out from a
// SessionDetector. It produces verdicts identical to the detector's own
// Inspect but may reuse private scratch buffers between calls, so a held
// session inspects without heap allocations. Not safe for concurrent use;
// Close returns the scratch to the detector's pools.
type InspectSession interface {
	// Inspect classifies a single request, exactly as Detector.Inspect.
	Inspect(req httpx.Request) Verdict
	// Close releases the session's scratch. The session must not be used
	// afterwards.
	Close()
}

// SessionDetector is a Detector that can check out per-goroutine serving
// sessions. Evaluate and ParallelEvaluate use one session per worker when
// the detector offers them, which keeps the measured hot path
// allocation-free without changing any verdict.
type SessionDetector interface {
	Detector
	// NewSession checks out a serving session; callers own it until Close.
	NewSession() InspectSession
}

// Options configures rule-engine construction.
type Options struct {
	// IncludeDisabled loads rules that ship disabled by default, as the
	// paper does when merging the Snort and ET sets for Table V.
	IncludeDisabled bool
}

// RuleEngine evaluates a ruleset against requests.
type RuleEngine struct {
	name      string
	mode      ruleset.Mode
	threshold int
	rules     []compiledRule
}

var _ Detector = (*RuleEngine)(nil)

type compiledRule struct {
	id      string
	target  ruleset.Target
	score   int
	re      *regexp.Regexp // nil for content rules
	content string         // lowercase substring for content rules
}

// NewRuleEngine compiles a ruleset into an engine.
func NewRuleEngine(rs ruleset.Ruleset, opts Options) (*RuleEngine, error) {
	e := &RuleEngine{name: rs.Name, mode: rs.Mode, threshold: rs.AnomalyThreshold}
	if e.mode == ruleset.ModeAnomalyScoring && e.threshold <= 0 {
		return nil, fmt.Errorf("ids: ruleset %s: anomaly scoring needs a positive threshold", rs.Name)
	}
	for _, r := range rs.Rules {
		if !r.Enabled && !opts.IncludeDisabled {
			continue
		}
		cr := compiledRule{id: r.ID, target: r.Target, score: r.Score}
		switch r.Kind {
		case ruleset.MatchRegex:
			// Anomaly-scoring (WAF) rules see only the normalized lowercase
			// view, so they compile case-sensitive — significantly cheaper
			// to match; IDS rules also scan the raw buffer and need (?i).
			pat := r.Pattern
			if e.mode != ruleset.ModeAnomalyScoring {
				pat = "(?i)" + pat
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("ids: rule %s: %w", r.ID, err)
			}
			cr.re = re
		case ruleset.MatchContent:
			cr.content = strings.ToLower(r.Pattern)
		default:
			return nil, fmt.Errorf("ids: rule %s: unknown match kind %d", r.ID, r.Kind)
		}
		if cr.score == 0 {
			cr.score = 1
		}
		e.rules = append(e.rules, cr)
	}
	return e, nil
}

// Name implements Detector.
func (e *RuleEngine) Name() string { return e.name }

// Inspect implements Detector. Rules see both the raw and the normalized
// (decoded, lowercased) view of their target buffer, mirroring IDS
// preprocessor behaviour.
func (e *RuleEngine) Inspect(req httpx.Request) Verdict {
	rawPayload := req.Payload()
	normPayload := normalize.Normalize(rawPayload)
	rawURI := req.URL()
	var normURI string // computed lazily; most rules target the payload

	var v Verdict
	for i := range e.rules {
		r := &e.rules[i]
		var raw, norm string
		switch r.target {
		case ruleset.TargetURI:
			if normURI == "" {
				normURI = normalize.Normalize(rawURI)
			}
			raw, norm = rawURI, normURI
		default:
			raw, norm = rawPayload, normPayload
		}
		// Anomaly-scoring engines model a WAF, which inspects the decoded
		// argument view only; IDS-style deterministic engines also scan the
		// raw buffer, as their preprocessors do.
		if !r.matches(raw, norm, e.mode == ruleset.ModeAnomalyScoring) {
			continue
		}
		v.Matched = append(v.Matched, r.id)
		v.Score += r.score
		if e.mode == ruleset.ModeDeterministic {
			// One matching rule is an alert; keep scanning only to report
			// the full match list in deterministic mode? Snort alerts per
			// rule; the verdict is already decided.
			v.Alert = true
		}
	}
	if e.mode == ruleset.ModeAnomalyScoring {
		v.Alert = v.Score >= e.threshold
	}
	return v
}

func (r *compiledRule) matches(raw, norm string, normOnly bool) bool {
	if r.re != nil {
		if normOnly {
			return r.re.MatchString(norm)
		}
		return r.re.MatchString(norm) || r.re.MatchString(raw)
	}
	if normOnly {
		return strings.Contains(norm, r.content)
	}
	return strings.Contains(norm, r.content) || strings.Contains(strings.ToLower(raw), r.content)
}

// EvalResult is the outcome of running a detector over a labeled request
// stream: the confusion matrix against the requests' ground-truth labels,
// plus measured per-request scoring latency.
type EvalResult struct {
	TP, FP, TN, FN int
	// Latency summarizes how long Inspect took per request. The counts
	// are deterministic for a fixed detector and stream; Latency is a
	// wall-clock measurement and varies run to run — compare Confusion()
	// when asserting equality.
	Latency LatencyStats
}

// Confusion is the deterministic part of an EvalResult, comparable with ==.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confusion returns the confusion counts without the latency measurement.
func (r EvalResult) Confusion() Confusion {
	return Confusion{TP: r.TP, FP: r.FP, TN: r.TN, FN: r.FN}
}

// TPR is the detection rate.
func (r EvalResult) TPR() float64 {
	if r.TP+r.FN == 0 {
		return 0
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// FPR is the false-alarm rate.
func (r EvalResult) FPR() float64 {
	if r.FP+r.TN == 0 {
		return 0
	}
	return float64(r.FP) / float64(r.FP+r.TN)
}

// Evaluate inspects every request and scores the detector against the
// ground truth carried by the requests, timing each Inspect call.
func Evaluate(d Detector, reqs []httpx.Request) EvalResult {
	r, lats := evaluate(d, reqs, time.Now)
	r.Latency = SummarizeLatency(lats)
	return r
}

// evaluate is the core scoring loop. The clock is a parameter so the
// percentile math is testable against a synthetic monotonic clock; the
// confusion counts never depend on it.
func evaluate(d Detector, reqs []httpx.Request, clock func() time.Time) (EvalResult, []time.Duration) {
	inspect := d.Inspect
	if sd, ok := d.(SessionDetector); ok {
		sess := sd.NewSession()
		defer sess.Close()
		inspect = sess.Inspect
	}
	var r EvalResult
	lats := make([]time.Duration, 0, len(reqs))
	for _, req := range reqs {
		start := clock()
		alert := inspect(req).Alert
		lats = append(lats, clock().Sub(start))
		switch {
		case alert && req.Malicious:
			r.TP++
		case alert && !req.Malicious:
			r.FP++
		case !alert && req.Malicious:
			r.FN++
		default:
			r.TN++
		}
	}
	return r, lats
}
