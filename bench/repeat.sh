#!/usr/bin/env bash
# A/A check: runs the whole suite twice on this tree and prints, for
# every end-to-end metric × workload, how far the two runs differ next
# to the metric's bound. Exits non-zero when any pair differs by more
# than its bound — such a metric is too noisy to gate on and must be
# fixed (longer span, more windows) or moved to the per-layer list.
# Arguments pass through to both runs (e.g. -seconds 10, -seed 4).
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bash "$bench/run.sh" -out bench/out/A "$@"
bash "$bench/run.sh" -out bench/out/B "$@"
bash "$bench/run.sh" -compare bench/out/A/result.json bench/out/B/result.json
