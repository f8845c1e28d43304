package fleet

// Fleet chaos suite: the acceptance proof for fleet mode. A seeded
// faultify storm runs against both one gateway and a three-replica fleet
// fed the identical request sequence; mid-storm a replica is killed,
// ejected, revived and readmitted, and the model is reloaded through the
// coordinated fanout — including one forced probe failure and one forced
// partial-commit rollback. The fleet must answer every request with
// exactly the verdicts the single instance produced, no request may
// observe a mixed-generation fleet, and same-seed fleet runs must emit
// bit-identical transcripts.
//
// The determinism argument: requests are driven sequentially, the fleet
// never re-dispatches a request that produced a verdict, and a dead
// replica fails before any upstream contact — so every request reaches
// the shared upstream exactly once in both runs, the faultify schedule (a
// pure function of seed, request key, and per-key attempt) unfolds
// identically, and the verdict sequences match element for element. The
// upstream breaker is disabled on every gateway in both runs because its
// state is fed by upstream contacts per gateway: one gateway seeing all
// 200 contacts and three gateways seeing a third each would diverge — the
// one piece of single-instance state that cannot be sharded and compared.
// Production fleets keep it on; this suite trades it for an exact oracle.
//
// No test sleeps on the wall clock: the front's backoff Sleep is a
// counter, and upstream Hang faults resolve through the gateway's 150ms
// upstream deadline (the convention set by the crawl and gateway chaos
// suites).

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/faultify"
	"psigene/internal/gateway"
	"psigene/internal/ids"
	"psigene/internal/traffic"
	"psigene/internal/webapp"
)

// chaosWorkload is the fixed mixed stream: sqlmap-style injections plus
// benign browsing, as proxy targets, with a rotating caller pool so the
// ring actually spreads the load.
func chaosWorkload(n int) (targets, remotes []string) {
	reqs := attackgen.NewGenerator(attackgen.SQLMapProfile(), 21).Requests(n / 2)
	reqs = append(reqs, traffic.NewGenerator(22).Requests(n-n/2)...)
	targets = make([]string, len(reqs))
	remotes = make([]string, len(reqs))
	for i, r := range reqs {
		targets[i] = r.URL()
		remotes[i] = fmt.Sprintf("203.0.113.%d:4000", i%40)
	}
	return targets, remotes
}

// chaosUpstream wraps the demo webapp in a fault injector at the given
// total rate, spread uniformly over all fault classes.
func chaosUpstream(seed int64, rate float64) *httptest.Server {
	in := faultify.New(faultify.Config{Seed: seed, Rates: faultify.Uniform(rate)})
	return httptest.NewServer(in.Wrap(webapp.New(50)))
}

// allowedStatuses is every verdict the fleet may hand a client under
// chaos — the gateway's set; the fleet adds nothing because unavailable
// (fleet 503) must never fire in this suite.
var allowedStatuses = map[int]bool{
	200: true, 404: true, 429: true, 403: true,
	500: true, 502: true, 503: true, 504: true,
}

// Two trained models with package-test lifetime (the same pattern as the
// gateway suite): the reload fanout must swap between genuinely different
// artifacts, or the no-mixed-generation assertion would be vacuous.
var (
	modelsOnce sync.Once
	modelsDir  string
	modelsErr  error
)

func trainedModelPair(t *testing.T) (pathA, pathB string) {
	t.Helper()
	modelsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fleet-models-")
		if err != nil {
			modelsErr = err
			return
		}
		modelsDir = dir
		for _, m := range []struct {
			name                string
			attackSeed, webSeed int64
		}{
			{"modelA", 11, 12},
			{"modelB", 13, 14},
		} {
			attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), m.attackSeed).Requests(800)
			benign := traffic.NewGenerator(m.webSeed).Requests(1000)
			model, err := core.Train(attacks, benign, core.Config{})
			if err != nil {
				modelsErr = err
				return
			}
			if _, err := model.SaveArtifact(filepath.Join(dir, m.name), core.Manifest{Version: m.name}); err != nil {
				modelsErr = err
				return
			}
		}
	})
	if modelsErr != nil {
		t.Fatalf("training models: %v", modelsErr)
	}
	return filepath.Join(modelsDir, "modelA"), filepath.Join(modelsDir, "modelB")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if modelsDir != "" {
		os.RemoveAll(modelsDir)
	}
	os.Exit(code)
}

// chaosGatewayOptions: short upstream deadline so Hang faults resolve in
// milliseconds, breaker off for the exact parity oracle (see the file
// comment), model identity tagged so X-Psigene-Gen carries version+hash.
func chaosGatewayOptions(man core.Manifest) gateway.Options {
	return gateway.Options{
		UpstreamTimeout: 150 * time.Millisecond,
		DisableBreaker:  true,
		ModelVersion:    man.Version,
		ModelSHA256:     man.ModelSHA256,
	}
}

// modelTag extracts the "version sha256:hash" identity from an
// X-Psigene-Gen header, dropping the replica-local generation number —
// replica generations legitimately diverge after a rollback (commit+undo
// advances the counter twice), but the identity must stay uniform.
func modelTag(genHeader string) string {
	_, tag, ok := strings.Cut(genHeader, " ")
	if !ok {
		return ""
	}
	return tag
}

const (
	chaosRequests  = 200
	killAt         = 40  // replica 1 dies mid-storm
	probeFailAt    = 60  // coordinated reload with one forced probe failure
	reviveAt       = 70  // replica 1 comes back; readmission is earned later
	reloadAt       = 100 // the successful A->B fanout, in both runs
	commitFailAt   = 130 // fanout with one forced commit failure -> rollback
	chaosFaultRate = 0.20
	chaosUpSeed    = 99
)

// runSingleInstance drives the workload through one gateway, reloading
// A->B at reloadAt, and returns the status verdicts.
func runSingleInstance(t *testing.T, targets, remotes []string, pathA, pathB string) []int {
	t.Helper()
	srv := chaosUpstream(chaosUpSeed, chaosFaultRate)
	defer srv.Close()
	det, man, err := core.LoadArtifact(pathA)
	if err != nil {
		t.Fatalf("load model A: %v", err)
	}
	g, err := gateway.New(srv.URL, det, chaosGatewayOptions(man))
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	codes := make([]int, len(targets))
	for i := range targets {
		if i == reloadAt {
			if _, err := g.ReloadModel(pathB); err != nil {
				t.Fatalf("single-instance reload: %v", err)
			}
		}
		w := getFrom(g, remotes[i], targets[i])
		if !allowedStatuses[w.Code] {
			t.Fatalf("single run request %d: status %d", i, w.Code)
		}
		codes[i] = w.Code
	}
	return codes
}

// fleetChaosResult is one fleet storm's full observable output.
type fleetChaosResult struct {
	codes      []int
	transcript string
	snap       FleetSnapshot
	sleeps     int
}

// runFleet drives the identical workload through a 3-replica fleet with
// the kill/revive/reload schedule applied at fixed request indices.
func runFleet(t *testing.T, targets, remotes []string, pathA, pathB string) fleetChaosResult {
	t.Helper()
	srv := chaosUpstream(chaosUpSeed, chaosFaultRate)
	defer srv.Close()

	const replicas = 3
	gws := make([]*gateway.Gateway, replicas)
	for i := range gws {
		det, man, err := core.LoadArtifact(pathA)
		if err != nil {
			t.Fatalf("load model A for replica %d: %v", i, err)
		}
		gws[i], err = gateway.New(srv.URL, det, chaosGatewayOptions(man))
		if err != nil {
			t.Fatalf("gateway.New replica %d: %v", i, err)
		}
	}

	// The forced-failure seams are armed per event through these slots.
	var probeFailReplica, commitFailReplica = -1, -1
	ns := &noSleep{}
	f, err := New(gws, Options{
		Seed:             77,
		BreakerThreshold: 2,
		BreakerCooldown:  4,
		ProbeEvery:       16,
		Sleep:            ns.fn,
		ProbeHook: func(rep int, _ ids.Detector) error {
			if rep == probeFailReplica {
				return fmt.Errorf("forced probe failure on replica %d", rep)
			}
			return nil
		},
		CommitHook: func(rep int) error {
			if rep == commitFailReplica {
				return fmt.Errorf("forced commit failure on replica %d", rep)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}

	var lines []string
	codes := make([]int, len(targets))
	tagA, tagB := "", ""
	for i := range targets {
		switch i {
		case killAt:
			if err := f.Kill(1); err != nil {
				t.Fatal(err)
			}
		case probeFailAt:
			// A fanout where one replica cannot validate the candidate:
			// nobody swaps, the storm continues on model A.
			probeFailReplica = 0
			if _, err := f.ReloadAll(pathB); err == nil {
				t.Fatalf("request %d: forced probe failure did not reject the fanout", i)
			}
			probeFailReplica = -1
		case reviveAt:
			if err := f.Revive(1); err != nil {
				t.Fatal(err)
			}
		case reloadAt:
			if _, err := f.ReloadAll(pathB); err != nil {
				t.Fatalf("request %d: coordinated reload: %v", i, err)
			}
		case commitFailAt:
			// A fanout that fails partway through commit: the committed
			// replicas roll back, the fleet stays uniform on model B.
			commitFailReplica = 2
			if _, err := f.ReloadAll(pathA); err == nil {
				t.Fatalf("request %d: forced commit failure did not reject the fanout", i)
			}
			commitFailReplica = -1
		}

		w := getFrom(f, remotes[i], targets[i])
		if !allowedStatuses[w.Code] {
			t.Fatalf("fleet request %d: status %d", i, w.Code)
		}
		codes[i] = w.Code

		// No request may observe a mixed-generation fleet: before the
		// successful fanout every verdict is stamped with model A's
		// identity, after it with model B's — forced-failure fanouts
		// included, since they either swap nothing or roll back whole.
		tag := modelTag(w.Header().Get("X-Psigene-Gen"))
		if tag == "" {
			t.Fatalf("fleet request %d: no model identity on verdict", i)
		}
		if i == 0 {
			tagA = tag
		}
		if i == reloadAt {
			tagB = tag
			if tagB == tagA {
				t.Fatalf("reload fanout did not change the serving model identity: %q", tag)
			}
		}
		want := tagA
		if i >= reloadAt {
			want = tagB
		}
		if tag != want {
			t.Fatalf("fleet request %d served by model %q, want %q: mixed generation observed", i, tag, want)
		}

		lines = append(lines, fmt.Sprintf("%03d %d %s | %s", i, w.Code,
			w.Header().Get("X-Psigene-Fleet"), w.Header().Get("X-Psigene-Gen")))
	}

	snap := f.Snapshot()
	if snap.MixedModel {
		t.Fatal("fleet ended mixed-model")
	}
	return fleetChaosResult{
		codes:      codes,
		transcript: strings.Join(lines, "\n"),
		snap:       snap,
		sleeps:     ns.n,
	}
}

// TestFleetChaosStorm is the headline acceptance test: under the seeded
// fault storm with a replica killed/ejected/readmitted and three reload
// fanouts (one rejected at probe, one committed, one rolled back), the
// fleet's verdicts equal the single-instance run element for element —
// and therefore as a multiset — and same-seed fleet runs produce
// bit-identical transcripts.
func TestFleetChaosStorm(t *testing.T) {
	pathA, pathB := trainedModelPair(t)
	targets, remotes := chaosWorkload(chaosRequests)

	single := runSingleInstance(t, targets, remotes, pathA, pathB)
	res := runFleet(t, targets, remotes, pathA, pathB)

	for i := range single {
		if single[i] != res.codes[i] {
			t.Fatalf("request %d (%s): fleet verdict %d, single-instance %d",
				i, targets[i], res.codes[i], single[i])
		}
	}

	// The storm must actually have exercised the machinery it claims to.
	snap := res.snap
	if snap.Unavailable != 0 {
		t.Fatalf("%d requests found no replica; the failover path is leaking work", snap.Unavailable)
	}
	if snap.Failovers == 0 {
		t.Fatal("no failovers: the kill window never rerouted a request")
	}
	if res.sleeps != int(snap.Failovers) {
		t.Fatalf("backoff count %d != failovers %d", res.sleeps, snap.Failovers)
	}
	if snap.ProbeSweeps == 0 {
		t.Fatal("active health probes never ran")
	}
	killed := snap.ReplicaStates[1]
	if killed.Ejections == 0 {
		t.Fatal("killed replica was never ejected")
	}
	if killed.Readmissions == 0 {
		t.Fatal("revived replica was never readmitted")
	}
	if snap.Reloads != 1 || snap.ReloadFailures != 2 || snap.Rollbacks != 1 {
		t.Fatalf("reload mix not exercised: reloads=%d failures=%d rollbacks=%d",
			snap.Reloads, snap.ReloadFailures, snap.Rollbacks)
	}
	if snap.RollbackFailures != 0 {
		t.Fatalf("%d replicas stranded by failed rollbacks", snap.RollbackFailures)
	}
	if snap.Generation != 2 {
		t.Fatalf("fleet generation %d, want 2 (one successful fanout)", snap.Generation)
	}
	var servedTotal int64
	for _, r := range snap.ReplicaStates {
		servedTotal += r.Served
	}
	if servedTotal != int64(len(targets)) {
		t.Fatalf("replicas served %d requests, want %d", servedTotal, len(targets))
	}
	t.Logf("storm: failovers=%d ejections=%d readmissions=%d sweeps=%d",
		snap.Failovers, killed.Ejections, killed.Readmissions, snap.ProbeSweeps)

	// Same seed, same storm: the full transcript — status, serving
	// replica, fleet generation, model identity — is bit-identical.
	again := runFleet(t, targets, remotes, pathA, pathB)
	if res.transcript != again.transcript {
		t.Fatal("same-seed fleet runs diverged; transcripts differ")
	}
}

// TestFleetChaosSpreadsLoad pins the ring's purpose: under the healthy
// portion of the storm every replica serves a real share of the traffic,
// so the fleet is a fleet and not a primary with warm spares.
func TestFleetChaosSpreadsLoad(t *testing.T) {
	pathA, pathB := trainedModelPair(t)
	targets, remotes := chaosWorkload(chaosRequests)
	res := runFleet(t, targets, remotes, pathA, pathB)
	for _, r := range res.snap.ReplicaStates {
		if r.Served < chaosRequests/10 {
			t.Fatalf("replica %d served only %d/%d requests: %+v",
				r.ID, r.Served, chaosRequests, res.snap.ReplicaStates)
		}
	}
}
