#!/usr/bin/env bash
# Builds the serving benchmark and runs it from the root of a source
# checkout. Arguments are passed through, e.g.
#
#   bash perfbench/run.sh --workload hot-mixed --seed 1 --seconds 20 --trace 0
#
# All build output (Go build cache, binaries, spans) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
