#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the bench driver from source
# into .bench_build/ (the driver builds cmd/psigened there itself) and runs
# it with the arguments given. Every cache and temp file the Go toolchain
# writes is kept inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/psigene-bench" .) >&2
cd "$root"
exec "$build/bin/psigene-bench" "$@"
