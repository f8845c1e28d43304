package ids

import (
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/httpx"
	"psigene/internal/ruleset"
	"psigene/internal/traffic"
)

func mustEngine(t *testing.T, rs ruleset.Ruleset, opts Options) *RuleEngine {
	t.Helper()
	e, err := NewRuleEngine(rs, opts)
	if err != nil {
		t.Fatalf("NewRuleEngine(%s): %v", rs.Name, err)
	}
	return e
}

func attackReq(query string) httpx.Request {
	return httpx.Request{Method: "GET", Host: "victim", Path: "/view.php", RawQuery: query, Malicious: true}
}

func benignReq(query string) httpx.Request {
	return httpx.Request{Method: "GET", Host: "www", Path: "/search", RawQuery: query}
}

func TestDeterministicEngineAlerts(t *testing.T) {
	e := mustEngine(t, ruleset.Snort(), Options{})
	v := e.Inspect(attackReq("id=1+union+select+user,password+from+mysql.user"))
	if !v.Alert || len(v.Matched) == 0 {
		t.Fatalf("union select must alert: %+v", v)
	}
	v = e.Inspect(benignReq("q=cheap+flights&page=2"))
	if v.Alert {
		t.Fatalf("benign search alerted: %+v", v)
	}
}

func TestDeterministicEngineDecodesPayload(t *testing.T) {
	e := mustEngine(t, ruleset.Snort(), Options{})
	// URL-encoded tautology must still alert via the normalized view.
	v := e.Inspect(attackReq("id=1%27%20or%20%271%27%3D%271"))
	if !v.Alert {
		t.Fatal("encoded tautology must alert after normalization")
	}
}

func TestAnomalyScoringThreshold(t *testing.T) {
	e := mustEngine(t, ruleset.ModSecCRS(), Options{})
	// A strong injection scores well past the threshold.
	v := e.Inspect(attackReq("id=-1+union+select+1,concat(user(),0x3a,version()),3+from+information_schema.tables--+"))
	if !v.Alert || v.Score < 5 {
		t.Fatalf("union injection: %+v", v)
	}
	// A lone apostrophe in a name scores below the threshold.
	v = e.Inspect(benignReq("last=o%27brien&dept=news"))
	if v.Alert {
		t.Fatalf("apostrophe name alerted with score %d: %v", v.Score, v.Matched)
	}
}

func TestAnomalyScoreAccumulates(t *testing.T) {
	rs := ruleset.Ruleset{
		Name: "toy", Mode: ruleset.ModeAnomalyScoring, AnomalyThreshold: 5,
		Rules: []ruleset.Rule{
			{ID: "a", Kind: ruleset.MatchRegex, Target: ruleset.TargetPayload, Pattern: `union`, Enabled: true, Score: 3},
			{ID: "b", Kind: ruleset.MatchRegex, Target: ruleset.TargetPayload, Pattern: `select`, Enabled: true, Score: 3},
		},
	}
	e := mustEngine(t, rs, Options{})
	if v := e.Inspect(attackReq("id=union")); v.Alert {
		t.Fatalf("single match (score 3) must not alert: %+v", v)
	}
	if v := e.Inspect(attackReq("id=union+select")); !v.Alert || v.Score != 6 {
		t.Fatalf("two matches must alert with score 6: %+v", v)
	}
}

func TestIncludeDisabled(t *testing.T) {
	rs := ruleset.EmergingThreats()
	def := mustEngine(t, rs, Options{})
	if len(def.rules) != 0 {
		t.Fatalf("ET default engine loaded %d rules, want 0 (all disabled)", len(def.rules))
	}
	all := mustEngine(t, rs, Options{IncludeDisabled: true})
	if len(all.rules) != 4231 {
		t.Fatalf("ET with disabled loaded %d rules, want 4231", len(all.rules))
	}
}

func TestURITargetRules(t *testing.T) {
	rs := ruleset.Ruleset{
		Name: "toy", Mode: ruleset.ModeDeterministic,
		Rules: []ruleset.Rule{{
			ID: "uri1", Kind: ruleset.MatchRegex, Target: ruleset.TargetURI,
			Pattern: `/cart\.php\?.*id=[^&]*union`, Enabled: true,
		}},
	}
	e := mustEngine(t, rs, Options{})
	hit := httpx.Request{Path: "/cart.php", RawQuery: "id=1+union+select+1", Malicious: true}
	if !e.Inspect(hit).Alert {
		t.Fatal("URI rule must match path+query")
	}
	miss := httpx.Request{Path: "/other.php", RawQuery: "id=1+union+select+1", Malicious: true}
	if e.Inspect(miss).Alert {
		t.Fatal("URI rule must not match a different path")
	}
}

func TestNewRuleEngineErrors(t *testing.T) {
	bad := ruleset.Ruleset{Name: "x", Mode: ruleset.ModeDeterministic,
		Rules: []ruleset.Rule{{ID: "1", Kind: ruleset.MatchRegex, Pattern: "(", Enabled: true}}}
	if _, err := NewRuleEngine(bad, Options{}); err == nil {
		t.Fatal("bad regex: want error")
	}
	noThresh := ruleset.Ruleset{Name: "x", Mode: ruleset.ModeAnomalyScoring}
	if _, err := NewRuleEngine(noThresh, Options{}); err == nil {
		t.Fatal("scoring without threshold: want error")
	}
	unknownKind := ruleset.Ruleset{Name: "x", Mode: ruleset.ModeDeterministic,
		Rules: []ruleset.Rule{{ID: "1", Pattern: "a", Enabled: true}}}
	if _, err := NewRuleEngine(unknownKind, Options{}); err == nil {
		t.Fatal("unknown match kind: want error")
	}
}

func TestEvaluateCounts(t *testing.T) {
	e := mustEngine(t, ruleset.Snort(), Options{})
	reqs := []httpx.Request{
		attackReq("id=1'+or+'1'='1"), // TP
		attackReq("id=zzz"),          // FN (no injection markers)
		benignReq("q=union+college"), // TN or FP
		benignReq("q=hello"),         // TN
	}
	r := Evaluate(e, reqs)
	if r.TP != 1 || r.FN != 1 {
		t.Fatalf("eval=%+v", r)
	}
	if r.TP+r.FP+r.TN+r.FN != len(reqs) {
		t.Fatalf("counts do not sum: %+v", r)
	}
	if r.TPR() != 0.5 {
		t.Fatalf("TPR=%v", r.TPR())
	}
}

func TestEvalResultZeroDenominator(t *testing.T) {
	var r EvalResult
	if r.TPR() != 0 || r.FPR() != 0 {
		t.Fatal("zero denominators must yield zero rates")
	}
}

// TestEnginesOnGeneratedWorkload is an integration smoke test: every engine
// must detect a majority of generated attacks while keeping benign false
// positives rare.
func TestEnginesOnGeneratedWorkload(t *testing.T) {
	attacks := attackgen.NewGenerator(attackgen.SQLMapProfile(), 1).Requests(400)
	benign := traffic.NewGenerator(2).Requests(400)
	reqs := append(append([]httpx.Request{}, attacks...), benign...)

	engines := []*RuleEngine{
		mustEngine(t, ruleset.Bro(), Options{}),
		mustEngine(t, ruleset.SnortET(), Options{IncludeDisabled: true}),
		mustEngine(t, ruleset.ModSecCRS(), Options{}),
	}
	for _, e := range engines {
		r := Evaluate(e, reqs)
		if r.TPR() < 0.5 {
			t.Errorf("%s: TPR=%.3f too low (%+v)", e.Name(), r.TPR(), r)
		}
		if r.FPR() > 0.05 {
			t.Errorf("%s: FPR=%.3f too high (%+v)", e.Name(), r.FPR(), r)
		}
	}
}
