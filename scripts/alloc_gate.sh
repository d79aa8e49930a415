#!/usr/bin/env bash
# alloc_gate.sh — hard gate on the allocation contracts of the ingest
# path, layer by layer.
#
# The ring: runs the live producer-path benchmarks with -benchmem and
# fails if any of them reports a nonzero allocs/op — steady-state Put
# and PutBatch must not allocate. The companion unit tests
# (TestPutSteadyStateAllocFree, TestSPSCOpsAllocFree) catch the same
# regressions under plain `go test`; this gate checks the exact
# numbers `make bench` publishes.
#
# The server: internal/server's ingest benchmarks report allocs/item
# (one slab per request, items as sub-slices, one PutBatch per stream)
# and must stay within their budget — a relapse to per-item copies or
# per-line ingest costs ≥ 1 alloc/item and fails here.
#
# The cluster wire: internal/cluster's BenchmarkWireForward encodes a
# 64-item batch into a connection-owned buffer and decodes it into
# sub-slices of one buffer; a relapse to per-item copies or a text
# codec costs ≥ 1 alloc/item and fails here.
#
# Usage: scripts/alloc_gate.sh [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-0.5s}"
benches='^(BenchmarkLivePut|BenchmarkLivePutBatch|BenchmarkPut)$'

out="$(go test -run '^$' -bench "$benches" -benchtime "$benchtime" -benchmem . | tee /dev/stderr)"

# Benchmark lines end "... <N> B/op  <M> allocs/op".
bad="$(awk '/allocs\/op/ { if ($(NF-1) + 0 != 0) print $1, $(NF-1), "allocs/op" }' <<<"$out")"
if [ -n "$bad" ]; then
    echo "alloc gate FAILED — hot-path benchmarks allocate:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "alloc gate OK: all hot-path benchmarks at 0 allocs/op"

# per_item_gate <package> <what> <name:budget>...: runs the named
# benchmarks and fails if any reports more allocs/item than its budget.
per_item_gate() {
    local pkg="$1" what="$2"
    shift 2
    local budgets="$*" names out bad
    names="$(sed 's/:[^ ]*//g; s/ /|/g' <<<"$budgets")"
    out="$(go test -run '^$' -bench "^($names)\$" -benchtime "$benchtime" "$pkg" | tee /dev/stderr)"
    bad="$(awk -v budgets="$budgets" '
        BEGIN { n = split(budgets, b, " "); for (i = 1; i <= n; i++) { split(b[i], kv, ":"); budget[kv[1]] = kv[2]; seen[kv[1]] = 0 } }
        /allocs\/item/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 2; i <= NF; i++) if ($i == "allocs/item") v = $(i-1)
            if (name in budget) { seen[name] = 1; if (v + 0 > budget[name] + 0) print name, v, "allocs/item, budget", budget[name] }
        }
        END { for (name in seen) if (!seen[name]) print name, "did not report allocs/item" }' <<<"$out")"
    if [ -n "$bad" ]; then
        echo "alloc gate FAILED — $what over its allocation budget:" >&2
        echo "$bad" >&2
        exit 1
    fi
    echo "alloc gate OK: $what within its allocs/item budget ($budgets)"
}

per_item_gate ./internal/server "server ingest" BenchmarkIngestHTTP:0.25 BenchmarkServeTCP:0.05
per_item_gate ./internal/cluster "cluster wire codec" BenchmarkWireForward:0.05
