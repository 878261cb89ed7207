#!/usr/bin/env bash
# Chaos smoke test: the sharded backend under a REAL
# worker kill, as a black box with real OS processes.
#
#   build -> cold single-process reference run -> start 3 emworker
#   processes -> run emmatch against the fleet -> SIGKILL one worker the
#   moment it logs its round-2 assignment -> assert the interrupted
#   fleet's match set is byte-identical to the reference, the run
#   reported the reassignment, and the victim is really dead.
#
# This is the OS-process counterpart of the in-process fault-injection
# differentials (distributed_test.go, internal/net/faults_test.go): same
# scenario, real sockets, real SIGKILL. Run from the repo root (CI runs
# it via `make chaos-smoke`).
set -euo pipefail

workdir="$(mktemp -d)"
corpus=(-kind hepth -scale 2 -seed 42)
scheme=smp
matcher=mln
worker_pids=()

cleanup() {
  for pid in "${worker_pids[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "CHAOS FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$workdir/emmatch" ./cmd/emmatch
go build -o "$workdir/emworker" ./cmd/emworker

echo "== cold single-process reference"
"$workdir/emmatch" "${corpus[@]}" -scheme $scheme -matcher $matcher \
  -dump-matches "$workdir/pool.txt" > "$workdir/pool.log"
grep -q '^# [1-9]' "$workdir/pool.txt" || fail "reference run produced no matches"

echo "== start 3 emworker processes"
addrs=()
for i in 0 1 2; do
  "$workdir/emworker" "${corpus[@]}" -scheme $scheme -matcher $matcher -v \
    -listen 127.0.0.1:0 > "$workdir/w$i.log" 2>&1 &
  worker_pids[$i]=$!
done
for i in 0 1 2; do
  # Startup grounds the full experiment (dataset generation + cover
  # construction) before listening; allow it half a minute.
  for _ in $(seq 1 600); do
    addr="$(sed -n 's/^emworker: .* on \(127\.0\.0\.1:[0-9]*\) .*/\1/p' "$workdir/w$i.log")"
    [ -n "$addr" ] && break
    sleep 0.05
  done
  [ -n "$addr" ] || fail "worker $i never published its listen address"
  addrs[$i]="$addr"
  echo "   worker $i: pid ${worker_pids[$i]} on $addr"
done

echo "== SIGKILL worker 1 at its round-2 assignment (watcher armed)"
victim_pid=${worker_pids[1]}
(
  for _ in $(seq 1 3000); do
    if grep -q 'round 2: evaluating' "$workdir/w1.log" 2>/dev/null; then
      kill -9 "$victim_pid" 2>/dev/null
      exit 0
    fi
    sleep 0.01
  done
) &
watcher=$!

echo "== distributed run against the fleet"
"$workdir/emmatch" "${corpus[@]}" -scheme $scheme -matcher $matcher -v \
  -backend sharded -worker-addrs "${addrs[0]},${addrs[1]},${addrs[2]}" \
  -dump-matches "$workdir/dist.txt" > "$workdir/dist.log" \
  || fail "a killed worker must never fail the run (exit $?)"
wait "$watcher" || fail "worker 1 never received a round-2 assignment; the kill never fired"

echo "== assert the victim is dead and the survivors carried the round"
kill -0 "$victim_pid" 2>/dev/null && fail "worker 1 (pid $victim_pid) survived SIGKILL"
worker_pids[1]=""
grep -q 'reassigned=[1-9]' "$workdir/dist.log" \
  || fail "run stats report no reassignment: $(grep '^stats:' "$workdir/dist.log")"

echo "== assert byte-identical match sets"
cmp "$workdir/pool.txt" "$workdir/dist.txt" \
  || fail "interrupted fleet diverges from the single-process reference"

echo "CHAOS OK: $(head -1 "$workdir/pool.txt") identical across backends; $(grep -o 'reassigned=[0-9]* retriedSends=[0-9]* lateDropped=[0-9]*' "$workdir/dist.log")"
