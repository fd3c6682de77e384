#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cortex-plastic --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays in .bench_build at the checkout root. The benchmark module uses
# the simulator through a replace directive pointing at the checkout
# root, so outside a full checkout the build fails and nothing runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
