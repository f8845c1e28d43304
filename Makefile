# Tier-1 gate: everything `make check` runs must stay green. It runs each
# test once: chaos, gateway-chaos, lifecycle-chaos, abuse-chaos,
# fleet-chaos and fastpath-smoke are -run filters over packages `test`
# runs in full, so they stay as developer aliases outside `check`.

GO ?= go

.PHONY: check vet fmt lint lint-baseline build test race race-parallel bench-check fastpath-smoke smoke chaos gateway-chaos lifecycle-chaos abuse-chaos fleet-chaos fuzz

check: vet fmt build lint test bench-check smoke fuzz

vet:
	$(GO) vet ./...

# gofmt cleanliness: fails listing the offending files, fixes nothing.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repository analyzer suite (code invariants, concurrency discipline,
# catalog flaws); exits nonzero on any unsuppressed finding not in the
# committed baseline, so new findings fail CI from day one. See DESIGN.md
# "Analysis" and "Concurrency analysis".
lint:
	$(GO) run ./cmd/psigenelint -baseline lint-baseline.json ./...

# Regenerate the accepted-findings baseline. New entries get a placeholder
# reason the gate rejects: justify each one in lint-baseline.json before
# committing, or fix the finding instead.
lint-baseline:
	$(GO) run ./cmd/psigenelint -write-baseline lint-baseline.json ./...

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

# The full race-enabled run; slower, so separate from `test` but part of CI.
# internal/experiments regenerates every table under a ~30x race slowdown,
# hence the long timeout. The serial-vs-parallel parity tests (matrix,
# feature, cluster, core, ids) run here too, exercising the parallel train
# path under the race detector.
race: race-parallel
	$(GO) test -race -timeout 45m ./...

# Fast race pass over just the parallel kernels and their parity tests —
# the worker pools, disjoint-slot writes, ownership partitioning, and the
# prefiltered serving path (shared extractor + atomic gate toggling under
# concurrent sessions) — plus the gateway and lifecycle chaos suites,
# whose reload storms and canary swaps exercise exactly the pool/atomic/
# lock invariants the static analyzers prove. The analyzer fixture
# modules under cmd/psigenelint/testdata carry deliberate races by
# design; `go test ./...` never builds testdata directories, so they are
# excluded from this pass by construction.
race-parallel:
	$(GO) test -race -timeout 20m -run 'Parallel|Prefilter|Session' ./internal/...
	$(GO) test -race -timeout 20m -count=1 ./internal/gateway/ ./internal/resilience/ ./internal/admission/ ./internal/fleet/
	$(GO) test -race -timeout 20m -count=1 -run 'Chaos|Reload|Lifecycle|Canary' ./internal/gateway/ ./internal/lifecycle/

# The repository benchmark (bench/, see BENCHMARK.json) is its own module,
# so the ./... of vet/build/test above never compiles it, yet it imports
# internal/ packages and judges every PR. This vets it and runs its tests,
# including the smoke run that drives a real psigened child on all four
# workloads.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Fast-path smoke: the bit-identity gates (train/serve/session parity,
# countMatches-vs-FindAll cross-check, corpus soundness) and the
# benign-path allocation budget, without the timing runs.
fastpath-smoke:
	$(GO) test -count=1 -run 'Prefilter|Fastpath|Session|ZeroAlloc|CountMatch|FullyGated|Opaque' ./internal/feature/ ./internal/core/ ./internal/analysis/

# End-to-end smoke tests: the quickstart example must train and classify,
# and the crawl-and-train example must finish its degraded loop against
# fault-injecting portals.
smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/crawl-and-train -flaky

# Chaos gate: the deterministic fault-injection suite (golden replay,
# recovery floor, kill-and-resume equivalence, breaker state machine) plus
# the degraded end-to-end loop. All sleeps are injected, so this is fast.
chaos:
	$(GO) test -count=1 -run 'Chaos|Checkpoint|Breaker|RetryAfter|Quarantine|Timeout' ./internal/crawl/ ./internal/faultify/
	$(GO) run ./examples/crawl-and-train -flaky

# Serving-side chaos gate: the gateway's deterministic fault-storm suite
# (faultify-wrapped upstream, scoring panics, failed reloads, drain under
# burst). Hang faults resolve through the gateway's short upstream
# deadline, so the whole suite runs in a few seconds.
gateway-chaos:
	$(GO) test -count=1 -run 'Chaos|Breaker|Drain|Overload|Reload' ./internal/gateway/

# Lifecycle chaos gate: the end-to-end crawl→retrain→gate→canary scenario
# under injected crawl faults, run twice and compared bit for bit
# (manifests, decision journal, canary verdict sequences), plus the
# versioned-artifact store and gate/canary unit suites. Sleeps are
# injected and traffic replays in-process, so no wall-clock waits.
lifecycle-chaos:
	$(GO) test -count=1 -run 'Lifecycle|Store|Gate|Runner|Rollback|Replay|CrawlSource' ./internal/lifecycle/

# Abuse-control chaos gate: the deterministic zipfian-storm suites at the
# controller and gateway layers (hot caller penalty-boxed and recovered
# while benign zipfian traffic rides through with zero limiter sheds,
# bit-identical transcripts across same-seed runs), the million-entry
# denylist build/lookup/hot-reload paths, and the admission fail-open
# behaviors. Every clock is injected, so the suite has no wall-clock
# sleeps and runs in seconds.
abuse-chaos:
	$(GO) test -count=1 -run 'AbuseChaos|Controller|XFF|CallerTable|Denylist|AdmissionPanic' ./internal/admission/ ./internal/gateway/

# Fleet chaos gate: the deterministic multi-replica storm — kill,
# eject, readmit and coordinated-reload a three-replica fleet mid-storm
# with seeded fault injection, and assert the verdict stream is
# bit-identical to a single instance serving the same sequence (plus a
# bit-identical transcript across same-seed runs). Sleeps are injected
# no-ops and every decision is a function of the seed, so the suite runs
# in seconds with zero wall-clock waits.
fleet-chaos:
	$(GO) test -count=1 -run 'FleetChaos|Ring|Failover|Ejection|ReloadTwoPhase|ReloadProbe|ReloadCommit|RollbackFailure' ./internal/fleet/

# Fuzz smoke: a few seconds per httpx parsing target (plus their checked-in
# crash corpora under testdata/fuzz). `go test -fuzz` accepts one target
# per run, hence one invocation each.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeComponent$$' -fuzztime 3s ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequestLine$$' -fuzztime 3s ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzParseParams$$' -fuzztime 3s ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzPrefilterSoundness$$' -fuzztime 3s ./internal/feature
