#!/usr/bin/env bash
# cluster-smoke: boot a 3-member xbarserver cluster behind xbargateway,
# drive load through the gateway, SIGKILL the leader mid-run, and assert
#   - the members booted in turn agree on the first one as the leader of
#     epoch 1, and exactly one of them leads,
#   - the submission error rate stays under the gate (the gateway retries
#     and reroutes around the dead member),
#   - a follower promotes itself within the promotion budget,
#   - the survivors' replication lag stays bounded (percentiles written to
#     an artifact).
#
# Usage: scripts/cluster-smoke.sh [bin-dir]   (default: ./bin)
set -euo pipefail

BIN=${1:-bin}
LEASE=1s
PROMOTE_BUDGET_S=5          # generous multiple of the lease
DURATION=8s
KILL_AFTER_S=2
MAX_ERROR_RATE=0.05
A=http://localhost:8081
B=http://localhost:8082
C=http://localhost:8083
GW=http://localhost:8090
WORK=$(mktemp -d /tmp/xbar-cluster-smoke.XXXXXX)

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_ready() { # url name
  for _ in $(seq 1 100); do
    curl -sf "$1/readyz" >/dev/null && return 0
    sleep 0.2
  done
  echo "$2 never became ready" >&2
  return 1
}

start_member() { # addr self dir peers
  "$BIN/xbarserver" -addr "$1" -journal-dir "$3" \
    -cluster-self "$2" -cluster-peers "$4" -lease "$LEASE" &
  pids+=($!)
}

# Each member elects before it serves: A, up first, leads epoch 1, and B
# and C adopt it.
echo "== starting 3 members in turn + gateway"
start_member :8081 "$A" "$WORK/a" "$B,$C"
LEADER_PID=${pids[-1]}
wait_ready "$A" member-a
start_member :8082 "$B" "$WORK/b" "$A,$C"
wait_ready "$B" member-b
start_member :8083 "$C" "$WORK/c" "$A,$B"
wait_ready "$C" member-c

leaders=0
for m in "$A" "$B" "$C"; do
  state=$(curl -sf "$m/v1/cluster/state")
  leader=$(printf '%s' "$state" | grep -o '"leader":"[^"]*"' | cut -d'"' -f4)
  epoch=$(printf '%s' "$state" | grep -o '"epoch":[0-9]*' | cut -d: -f2)
  if [ "$leader" != "$A" ] || [ "$epoch" != 1 ]; then
    echo "$m names leader $leader at epoch $epoch, want $A at epoch 1: $state" >&2
    exit 1
  fi
  if printf '%s' "$state" | grep -q '"role":"leader"'; then
    leaders=$((leaders + 1))
  fi
done
if [ "$leaders" -ne 1 ]; then
  echo "$leaders members report role leader, want exactly 1" >&2
  exit 1
fi
echo "== all members name $A leader of epoch 1; one leader"

"$BIN/xbargateway" -addr :8090 -members "$A,$B,$C" \
  -probe-interval 200ms -fail-threshold 2 -retry-budget 10s &
pids+=($!)
wait_ready "$GW" gateway

# Sample the survivors' replication lag through the whole run.
: > "$WORK/lag-samples.txt"
(
  while :; do
    for m in "$B" "$C"; do
      curl -sf "$m/metrics" 2>/dev/null |
        awk '/^xbar_replication_lag /{print $2}' >> "$WORK/lag-samples.txt" || true
    done
    sleep 0.1
  done
) &
pids+=($!)

echo "== driving load through the gateway ($DURATION at 30 rps, gate $MAX_ERROR_RATE)"
"$BIN/xbarloadgen" -url "$GW" -duration "$DURATION" -rps 30 \
  -max-error-rate "$MAX_ERROR_RATE" -out cluster-loadgen-report.json &
LOADGEN_PID=$!
pids+=("$LOADGEN_PID")

sleep "$KILL_AFTER_S"
echo "== SIGKILL the leader (pid $LEADER_PID) at t=${KILL_AFTER_S}s"
kill -9 "$LEADER_PID"
KILL_T=$(date +%s.%N)

# Promotion: the gateway's aggregated view must converge on a surviving
# leader with a bumped epoch within the budget.
promoted=""
for _ in $(seq 1 $((PROMOTE_BUDGET_S * 10))); do
  state=$(curl -sf "$GW/v1/cluster/state" || true)
  leader=$(printf '%s' "$state" | grep -o '"leader":"[^"]*"' | head -1 | cut -d'"' -f4)
  epoch=$(printf '%s' "$state" | grep -o '"epoch":[0-9]*' | head -1 | cut -d: -f2)
  if [ -n "$leader" ] && [ "$leader" != "$A" ] && [ "${epoch:-0}" -ge 2 ]; then
    promoted=$leader
    break
  fi
  sleep 0.1
done
if [ -z "$promoted" ]; then
  echo "no follower promoted itself within ${PROMOTE_BUDGET_S}s of the kill" >&2
  exit 1
fi
ELECT_S=$(echo "$(date +%s.%N) $KILL_T" | awk '{printf "%.1f", $1-$2}')
echo "== promoted: $promoted (epoch $epoch) ${ELECT_S}s after the kill"

echo "== waiting out the load run (the loadgen exits non-zero over the error gate)"
wait "$LOADGEN_PID"
cat cluster-loadgen-report.json

# Replication-lag percentiles over the whole run, survivors only.
sort -n "$WORK/lag-samples.txt" | awk '
  {v[NR]=$1}
  END {
    if (NR == 0) { print "no lag samples collected" > "/dev/stderr"; exit 1 }
    printf "{\"samples\":%d,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s}\n",
      NR, v[int(NR*0.50)+(NR*0.50==int(NR*0.50)?0:1)],
          v[int(NR*0.90)+(NR*0.90==int(NR*0.90)?0:1)],
          v[int(NR*0.99)+(NR*0.99==int(NR*0.99)?0:1)], v[NR]
  }' > replication-lag.json
echo "== replication lag percentiles (records): $(cat replication-lag.json)"

# Post-failover sanity: the gateway still accepts and serves work.
resp=$(curl -sf -X POST "$GW/v1/jobs" -H 'Content-Type: application/json' \
  -d '{"jobs":[{"kind":"synthesize-two-level","benchmark":"rd53"}]}')
echo "$resp" | grep -q '"batch_id"' || { echo "post-failover submit failed: $resp" >&2; exit 1; }
echo "== cluster smoke passed"
