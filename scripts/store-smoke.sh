#!/usr/bin/env bash
# Service smoke test: the emserve lifecycle on a state directory, end to
# end, as a black box.
#
#   build -> generate a corpus -> start emserve -state-dir -> POST two
#   batches, GET a cluster -> SIGTERM (graceful drain) -> assert the state
#   directory is a journal plus a store -> restart -> POST a third batch
#   -> SIGKILL (no drain: the journal and the store are all that
#   survives) -> restart.
#
# Each restart must serve the byte-identical committed state recovered by
# REOPENING the store snapshot: the reopen counter reads one and the
# matcher-call counter zero — not one neighborhood was re-evaluated.
#
# Run from the repo root (CI runs it via `make store-smoke`). Needs
# curl; jq is optional (the /stats comparison is skipped without it).
set -euo pipefail

workdir="$(mktemp -d)"
state="$workdir/state"
addr="127.0.0.1:18081"
base="http://$addr"
server_pid=""

cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "SMOKE FAIL: $*" >&2; exit 1; }

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server at $base never became healthy"
}

metric() { # metric <name> -> value from /metrics
  curl -fsS "$base/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

start() {
  "$workdir/emserve" -addr "$addr" -state-dir "$state" -max-delay 50ms &
  server_pid=$!
  wait_ready
}

post() { # post <file> <seq>: POST a batch, wait for its commit at seq
  curl -fsS -X POST --data-binary @"$1" "$base/records?wait=1" \
    | grep -q "\"seq\": *$2" || fail "$(basename "$1") did not commit at seq $2"
}

# assert_reopened <what>: the restarted server serves the state captured
# in matches_before/stats_before, reopened from the store with no replay.
assert_reopened() {
  [ "$(curl -fsS "$base/matches")" = "$matches_before" ] || fail "$1: restarted match set diverges"
  reopens="$(metric emserve_store_reopens_total)"
  [ "$reopens" = "1" ] || fail "$1: emserve_store_reopens_total = '$reopens', want 1 (snapshot reopen)"
  calls="$(metric emserve_matcher_calls_total)"
  [ "$calls" = "0" ] || fail "$1: emserve_matcher_calls_total = '$calls', want 0 (zero neighborhood evaluations on restart)"
  if command -v jq >/dev/null 2>&1; then
    stats_after="$(curl -fsS "$base/stats")"
    for field in .seq .records .match_pairs; do
      b="$(echo "$stats_before" | jq "$field")"
      a="$(echo "$stats_after" | jq "$field")"
      [ "$b" = "$a" ] || fail "$1: restarted $field = $a, want $b"
    done
  fi
}

capture() {
  matches_before="$(curl -fsS "$base/matches")"
  stats_before="$(curl -fsS "$base/stats")"
}

echo "== build"
go build -o "$workdir/emserve" ./cmd/emserve
go build -o "$workdir/emgen" ./cmd/emgen

echo "== fixture corpus, cut into two batches, and a third"
"$workdir/emgen" -kind hepth -scale 0.25 -records -out "$workdir/records.tsv"
total=$(($(wc -l < "$workdir/records.tsv") - 1))
[ "$total" -gt 2 ] || fail "emgen produced a degenerate corpus"
cut=$((total / 2))
head -n 1 "$workdir/records.tsv" > "$workdir/batch1.tsv"
sed -n "2,$((cut + 1))p" "$workdir/records.tsv" >> "$workdir/batch1.tsv"
head -n 1 "$workdir/records.tsv" > "$workdir/batch2.tsv"
sed -n "$((cut + 2)),\$p" "$workdir/records.tsv" >> "$workdir/batch2.tsv"
"$workdir/emgen" -kind dblp -scale 0.05 -seed 7 -records -out "$workdir/batch3.tsv"

echo "== start emserve -state-dir, POST two batches, GET a cluster"
start
post "$workdir/batch1.tsv" 1
key="$(sed -n '2p' "$workdir/batch1.tsv" | cut -f3)"
cluster="$(curl -fsS "$base/cluster/$(printf %s "$key" | sed 's/ /%20/g')")"
echo "$cluster" | grep -q '"clusters"' || fail "no cluster payload for key '$key': $cluster"
post "$workdir/batch2.tsv" 2
capture

echo "== SIGTERM (graceful drain)"
kill -TERM "$server_pid"
wait "$server_pid" || fail "emserve exited non-zero on SIGTERM"
server_pid=""

echo "== assert the state directory is a journal plus a store"
layout="$(cd "$state" && find . -type f | sort | tr '\n' ' ')"
want="./journal/batch-000001.tsv ./journal/batch-000002.tsv ./store/blob/postings/latest ./store/blob/snapshot/latest "
[ "$layout" = "$want" ] || fail "state directory holds '$layout', want '$want'"

echo "== restart after SIGTERM"
start
assert_reopened "SIGTERM restart"

echo "== the reopened state keeps ingesting incrementally"
post "$workdir/batch3.tsv" 3
calls="$(metric emserve_matcher_calls_total)"
[ "$calls" != "0" ] || fail "post-restart ingest ran no matcher calls (not incremental?)"
capture

echo "== SIGKILL (no drain)"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== restart after SIGKILL"
start
assert_reopened "SIGKILL restart"

kill -TERM "$server_pid"
wait "$server_pid" || fail "final shutdown exited non-zero"
server_pid=""

echo "SMOKE PASS: ingest -> SIGTERM -> store reopen -> ingest -> SIGKILL -> store reopen (0 evaluations each) -> identical state"
