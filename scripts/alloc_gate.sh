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
# (items as sub-slices of a reused read buffer, one PutBatch per stream)
# and must stay within their budget — a relapse to per-item copies or
# per-line ingest costs ≥ 1 alloc/item and fails here. They report
# B/item too, gated for HTTP and raw TCP: a stream copies the payloads
# it admits into its own arena, whose chunks it recycles in drain order,
# and a forwarded batch is copied by no one here. What HTTP still
# allocates is the benchmark's own request and recorder (≈ 24 B/item,
# BenchmarkIngestHTTPForwarded) plus the chunks a stream makes again
# after a GC has taken its spares (≈ 9 B/item: the one stream cycles a
# 65 536-item pair through a small heap, so it collects often). A fresh
# slab per request or read, or a second payload copy, costs ≥ 64 B/item
# (the benchmark's 64 B payloads) and fails here.
#
# The cluster wire: internal/cluster's BenchmarkWireForward encodes a
# 64-item batch into a connection-owned buffer and decodes it into
# sub-slices of one buffer; a relapse to per-item copies or a text
# codec costs ≥ 1 alloc/item and fails here.
#
# The forward hop: BenchmarkForwardHop forwards 64-item batches from
# one in-process node to another over loopback and counts every
# allocation in the process. The receiving node decodes each frame
# into its connection's reused buffer and the stream copies the
# payloads into its arena, so a hop allocates nothing per frame; a
# decode that copies payloads, keys, item headers, length prefixes or
# ack bodies per frame fails here.
#
# The wakeup path: BenchmarkInvocation trickles items into four pairs
# on one manager and reports allocs/invocation for the timer-driven
# cycle (fire → gather due pairs → label → drain → plan → reserve →
# re-arm). The Put benchmarks above cannot see this cost — they make a
# handful of invocations per million items — so it has its own budget:
# zero.
#
# Usage: scripts/alloc_gate.sh [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-0.5s}"
benches='^(BenchmarkLivePut|BenchmarkLivePutBatch|BenchmarkPut|BenchmarkPutParallelPairs)$'

out="$(go test -run '^$' -bench "$benches" -benchtime "$benchtime" -benchmem . | tee /dev/stderr)"

# Benchmark lines end "... <N> B/op  <M> allocs/op".
bad="$(awk '/allocs\/op/ { if ($(NF-1) + 0 != 0) print $1, $(NF-1), "allocs/op" }' <<<"$out")"
if [ -n "$bad" ]; then
    echo "alloc gate FAILED — hot-path benchmarks allocate:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "alloc gate OK: all hot-path benchmarks at 0 allocs/op"

# budget_gate <unit> <package> <what> <name:budget>...: runs the named
# benchmarks and fails if any reports more <unit> (a benchmark metric's
# full unit, such as allocs/item or B/item) than its budget.
budget_gate() {
    local unit="$1" pkg="$2" what="$3"
    shift 3
    local budgets="$*" names out bad
    names="$(sed 's/:[^ ]*//g; s/ /|/g' <<<"$budgets")"
    out="$(go test -run '^$' -bench "^($names)\$" -benchtime "$benchtime" "$pkg" | tee /dev/stderr)"
    bad="$(awk -v budgets="$budgets" -v unit="$unit" '
        BEGIN { n = split(budgets, b, " "); for (i = 1; i <= n; i++) { split(b[i], kv, ":"); budget[kv[1]] = kv[2]; seen[kv[1]] = 0 } }
        index($0, unit) {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 2; i <= NF; i++) if ($i == unit) v = $(i-1)
            if (name in budget) { seen[name] = 1; if (v + 0 > budget[name] + 0) print name, v, unit ", budget", budget[name] }
        }
        END { for (name in seen) if (!seen[name]) print name, "did not report", unit }' <<<"$out")"
    if [ -n "$bad" ]; then
        echo "alloc gate FAILED — $what over its $unit budget:" >&2
        echo "$bad" >&2
        exit 1
    fi
    echo "alloc gate OK: $what within its $unit budget ($budgets)"
}

budget_gate allocs/item ./internal/server "server ingest" BenchmarkIngestHTTP:0.25 BenchmarkServeTCP:0.05
budget_gate B/item ./internal/server "server ingest" BenchmarkIngestHTTP:38 BenchmarkIngestHTTPForwarded:40 BenchmarkServeTCP:8
budget_gate allocs/item ./internal/cluster "cluster wire codec" BenchmarkWireForward:0.05
budget_gate allocs/item ./internal/cluster "cluster forward hop" BenchmarkForwardHop:0.02
budget_gate B/item ./internal/cluster "cluster forward hop" BenchmarkForwardHop:2
budget_gate allocs/invocation . "wakeup path" BenchmarkInvocation:0
