#!/usr/bin/env bash
# Smoke-test the pbs-serve deployment pair end to end.
#
# Leg 1: start a server on an OS-assigned port, run one client sync against
# it (the client checks the learned difference against the workload ground
# truth), read the metrics endpoint, then SIGTERM the server and require a
# clean exit with the expected final stats line.
#
# Leg 2: host a 50-set catalog on a data dir under a resident cap that holds
# about ten of them, sync a handful of catalog sets with the client mode
# (an empty local set learns each set whole), then restart from the data
# dir alone: the whole catalog must be recovered and the same syncs must
# complete again, loading their sets cold. Per-element exactness of hosted
# syncs is TestFleet's hosted row.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
srv=""
cleanup() {
  if [ -n "$srv" ] && kill -0 "$srv" 2>/dev/null; then
    kill -TERM "$srv" 2>/dev/null || true
    wait "$srv" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT
bin="$tmp/pbs-serve"
go build -o "$bin" ./cmd/pbs-serve

start() { # args: logfile [pbs-serve flags...]; sets srv, addr, metrics
  local log="$1"
  shift
  "$bin" -addr 127.0.0.1:0 -metrics 127.0.0.1:0 "$@" >"$log" 2>&1 &
  srv=$!
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*serving .* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log")"
    metrics="$(sed -n 's/.*metrics on http:\/\/\(127\.0\.0\.1:[0-9]*\)\/.*/\1/p' "$log")"
    [ -n "$addr" ] && [ -n "$metrics" ] && return
    sleep 0.1
  done
  cat "$log" >&2
  echo "pbs-serve did not start" >&2
  exit 1
}

expect() { # args: logfile regex what
  grep -Eq "$2" "$1" || { cat "$1" >&2; echo "$3" >&2; exit 1; }
}

stop() { # args: logfile final-stats-regex; a non-zero server exit fails
  kill -TERM "$srv"
  wait "$srv" || { cat "$1" >&2; exit 1; }
  srv=""
  expect "$1" "$2" "unexpected final server stats"
}

log="$tmp/serve.log"
start "$log" -demo-size 50000 -demo-d 200 -demo-seed 1
"$bin" -sync "$addr" -demo-size 50000 -demo-d 200 -demo-seed 1

if command -v curl >/dev/null 2>&1; then
  # The server accounts the session when it reads the client's closing
  # msgDone, which can land a beat after the client process exits: poll.
  ok=""
  for _ in $(seq 1 50); do
    vars="$(curl -fsS "http://$metrics/debug/vars" || true)"
    if grep -q '"Completed":1' <<<"$vars"; then
      ok=1
      break
    fi
    sleep 0.1
  done
  [ -n "$ok" ] || { echo "metrics endpoint missing the completed session" >&2; exit 1; }
  # The session histograms and the mux counters are exported beside it.
  for key in LatencyUS SessionRounds SessionBytes StreamsOpen StreamsTotal; do
    grep -q "\"$key\"" <<<"$vars" || { echo "metrics endpoint missing $key" >&2; exit 1; }
  done
fi
stop "$log" 'done: 1 completed, 0 failed, 0 rejected'

# A hosted set is charged 8 B an element plus 256 B.
data="$tmp/data"
cap=$(((400 * 8 + 256) * 10))
clean='done: [1-9][0-9]* completed, 0 failed, 0 rejected'
catalog_syncs() { # each sync starts from nothing, so it learns all 400 elements
  for i in 03 17 29 41 48; do
    "$bin" -sync "$addr" -set-name "bench/s0000$i" -set /dev/null >"$tmp/sync.log"
    expect "$tmp/sync.log" '\|A△B\|=400, rounds=[0-9]+, complete=true' "sync of bench/s0000$i did not learn the set"
  done
}
log="$tmp/host.log"
start "$log" -data-dir "$data" -max-resident-bytes "$cap" -host-sets 50 -host-size 400
catalog_syncs
stop "$log" "$clean"

log="$tmp/restart.log"
start "$log" -data-dir "$data" -max-resident-bytes "$cap"
catalog_syncs
stop "$log" "$clean"
expect "$log" 'hosting 50 sets \(50 recovered' "restart did not recover the full catalog"
expect "$log" 'hosted: 50 sets, [0-9]+ resident, [1-9][0-9]* cold loads' "no cold loads after restart"
echo "pbs-serve smoke OK"
