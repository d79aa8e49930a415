#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# to bench/e2e (see its -h). Everything the build and the run write
# stays inside the checkout: the binary and everything the go command
# keeps (build cache, GOPATH, its config directory) go to .bench_build/
# at its root, traces and result files to bench/out/.
#
#   bash bench/run.sh                                   # every workload, untraced then traced
#   bash bench/run.sh --workload http_saturate --seed 3 --seconds 20 --trace 0
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local go -C "$bench" build -o "$build/e2e" ./e2e
cd "$root"
exec "$build/e2e" "$@"
