#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke of pcd cluster mode over real
# processes and sockets: build pcd + pcload, boot a two-node fleet on
# loopback with an authenticated tenant registry, replay a phase-shifted
# trace across both entry nodes with redirect-following and an API key,
# require keyless ingest to bounce with 401, scrape /statusz and the
# tenant metrics on each node, and require a clean SIGTERM drain from
# both.
#
# Usage: scripts/cluster_smoke.sh [duration-seconds]
set -euo pipefail

DUR="${1:-3}"
WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "cluster-smoke: building pcd + pcload"
go build -o "$WORK/pcd" ./cmd/pcd
go build -o "$WORK/pcload" ./cmd/pcload

APIKEY="smoke-key-acme"
cat >"$WORK/tenants.json" <<EOF
{
  "global_buffer": 4096,
  "tenants": [
    {"id": "acme", "keys": ["$APIKEY"], "buffer": 2048}
  ]
}
EOF

echo "cluster-smoke: booting node a"
"$WORK/pcd" -http 127.0.0.1:0 -addr-file "$WORK/a.addr" \
  -node-id a -cluster-listen 127.0.0.1:0 -cluster-heartbeat 50ms \
  -fleet -fleet-interval 200ms -tenants "$WORK/tenants.json" \
  -slot 5ms -latency 50ms -buffer 1024 2>"$WORK/a.log" &
A_PID=$!

for _ in $(seq 100); do
  [ -s "$WORK/a.addr" ] && grep -q '^cluster=' "$WORK/a.addr" && break
  sleep 0.1
done
A_HTTP=$(sed -n 's/^http=//p' "$WORK/a.addr")
A_CLUSTER=$(sed -n 's/^cluster=//p' "$WORK/a.addr")
[ -n "$A_HTTP" ] && [ -n "$A_CLUSTER" ] || { echo "cluster-smoke: node a never published addresses"; cat "$WORK/a.log"; exit 1; }

echo "cluster-smoke: booting node b (seed a@$A_CLUSTER)"
"$WORK/pcd" -http 127.0.0.1:0 -addr-file "$WORK/b.addr" \
  -node-id b -cluster-listen 127.0.0.1:0 -cluster-heartbeat 50ms \
  -cluster-seed "a@$A_CLUSTER" \
  -fleet -fleet-interval 200ms -tenants "$WORK/tenants.json" \
  -slot 5ms -latency 50ms -buffer 1024 2>"$WORK/b.log" &
B_PID=$!

for _ in $(seq 100); do
  [ -s "$WORK/b.addr" ] && grep -q '^http=' "$WORK/b.addr" && break
  sleep 0.1
done
B_HTTP=$(sed -n 's/^http=//p' "$WORK/b.addr")
[ -n "$B_HTTP" ] || { echo "cluster-smoke: node b never published addresses"; cat "$WORK/b.log"; exit 1; }

echo "cluster-smoke: waiting for membership convergence"
converged=""
for _ in $(seq 100); do
  if curl -sf "http://$A_HTTP/statusz" | grep -q '"state": *"alive"' &&
     curl -sf "http://$B_HTTP/statusz" | grep -q '"state": *"alive"'; then
    converged=yes
    break
  fi
  sleep 0.1
done
[ -n "$converged" ] || { echo "cluster-smoke: membership never converged"; cat "$WORK/a.log" "$WORK/b.log"; exit 1; }

echo "cluster-smoke: keyless ingest must bounce with 401"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d 'nope' "http://$A_HTTP/ingest/smoke-unauth")
[ "$CODE" = "401" ] || { echo "cluster-smoke: keyless ingest answered $CODE, want 401"; exit 1; }

echo "cluster-smoke: replaying authenticated trace across both entry nodes"
"$WORK/pcload" -targets "http://$A_HTTP,http://$B_HTTP" -api-key "$APIKEY" \
  -streams 6 -duration "${DUR}s" -rate 600 -batch 8

echo "cluster-smoke: scraping status"
for node in "a $A_HTTP" "b $B_HTTP"; do
  set -- $node
  STATUS=$(curl -sf "http://$2/statusz")
  # Here-strings, not echo | grep -q: under pipefail a grep that exits
  # on its first match can fail the pipeline with echo's SIGPIPE.
  grep -q '"enabled": *true' <<<"$STATUS" || { echo "cluster-smoke: node $1 not in cluster mode"; exit 1; }
  grep -q '"leader": *"a"' <<<"$STATUS" || { echo "cluster-smoke: node $1 disagrees on leader"; exit 1; }
  grep -q '"id": *"acme"' <<<"$STATUS" || { echo "cluster-smoke: node $1 missing tenant table"; exit 1; }
  METRICS=$(curl -sf "http://$2/metrics")
  grep -q '^pcd_cluster_peers' <<<"$METRICS" || { echo "cluster-smoke: node $1 missing cluster metrics"; exit 1; }
  grep -q '^pcd_tenant_' <<<"$METRICS" || { echo "cluster-smoke: node $1 missing tenant metrics"; exit 1; }
done

# The node that fielded the keyless probe must have counted it.
curl -sf "http://$A_HTTP/metrics" | grep '^pcd_auth_failures_total' | grep -qv ' 0$' \
  || { echo "cluster-smoke: auth failure never counted"; exit 1; }

echo "cluster-smoke: draining"
kill -TERM "$B_PID" "$A_PID"
wait "$B_PID" || { echo "cluster-smoke: node b drain failed"; cat "$WORK/b.log"; exit 1; }
wait "$A_PID" || { echo "cluster-smoke: node a drain failed"; cat "$WORK/a.log"; exit 1; }

echo "cluster-smoke: PASS"
