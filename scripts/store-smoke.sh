#!/usr/bin/env bash
# Store smoke test: the disk-backed storage backend end to end, as a
# black box.
#
#   build -> generate a corpus -> start emserve -store disk -> POST two
#   batches -> SIGKILL (no drain: the journal and the store are all
#   that survives) -> restart -> assert the byte-identical committed
#   state recovered by REOPENING the store snapshot: the matcher-call
#   counter must read zero — not one neighborhood was re-evaluated —
#   and the reopen counter must read one. Then ingest another batch to
#   prove the reopened state continues incrementally.
#
# Run from the repo root (CI runs it via `make store-smoke`). Needs
# curl; jq is optional (assertions fall back to grep).
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

echo "== build"
go build -o "$workdir/emserve" ./cmd/emserve
go build -o "$workdir/emgen" ./cmd/emgen

echo "== fixture corpus, cut into two batches"
"$workdir/emgen" -kind hepth -scale 0.25 -records -out "$workdir/records.tsv"
total=$(($(wc -l < "$workdir/records.tsv") - 1))
[ "$total" -gt 2 ] || fail "emgen produced a degenerate corpus"
cut=$((total / 2))
head -n 1 "$workdir/records.tsv" > "$workdir/batch1.tsv"
sed -n "2,$((cut + 1))p" "$workdir/records.tsv" >> "$workdir/batch1.tsv"
head -n 1 "$workdir/records.tsv" > "$workdir/batch2.tsv"
sed -n "$((cut + 2)),\$p" "$workdir/records.tsv" >> "$workdir/batch2.tsv"

echo "== start emserve -store disk"
"$workdir/emserve" -addr "$addr" -state-dir "$state" -store disk -max-delay 50ms &
server_pid=$!
wait_ready

echo "== POST two batches (wait for commit)"
curl -fsS -X POST --data-binary @"$workdir/batch1.tsv" "$base/records?wait=1" \
  | grep -q '"seq": *1' || fail "batch 1 did not commit at seq 1"
curl -fsS -X POST --data-binary @"$workdir/batch2.tsv" "$base/records?wait=1" \
  | grep -q '"seq": *2' || fail "batch 2 did not commit at seq 2"

matches_before="$(curl -fsS "$base/matches")"
stats_before="$(curl -fsS "$base/stats")"
[ -f "$state/store/blob/snapshot/latest" ] && ! ls "$state"/store/ev-*.seg >/dev/null 2>&1 || fail "disk store holds no snapshot blob, or wrote evidence segments"

echo "== SIGKILL (no drain)"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== restart on the same state"
"$workdir/emserve" -addr "$addr" -state-dir "$state" -store disk -max-delay 50ms &
server_pid=$!
wait_ready

echo "== assert the byte-identical state came from the store, not a replay"
matches_after="$(curl -fsS "$base/matches")"
[ "$matches_before" = "$matches_after" ] || fail "restarted match set diverges from the pre-kill one"
reopens="$(metric emserve_store_reopens_total)"
[ "$reopens" = "1" ] || fail "emserve_store_reopens_total = '$reopens', want 1 (snapshot reopen)"
calls="$(metric emserve_matcher_calls_total)"
[ "$calls" = "0" ] || fail "emserve_matcher_calls_total = '$calls', want 0 (zero neighborhood evaluations on restart)"
if command -v jq >/dev/null 2>&1; then
  for field in .seq .records .match_pairs; do
    b="$(echo "$stats_before" | jq "$field")"
    a="$(curl -fsS "$base/stats" | jq "$field")"
    [ "$b" = "$a" ] || fail "restarted $field = $a, want $b"
  done
fi

echo "== the reopened state keeps ingesting incrementally"
"$workdir/emgen" -kind dblp -scale 0.05 -seed 7 -records -out "$workdir/batch3.tsv"
curl -fsS -X POST --data-binary @"$workdir/batch3.tsv" "$base/records?wait=1" \
  | grep -q '"seq": *3' || fail "post-restart batch did not commit at seq 3"
calls="$(metric emserve_matcher_calls_total)"
[ "$calls" != "0" ] || fail "post-restart ingest ran no matcher calls (not incremental?)"

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "SMOKE PASS: ingest -> SIGKILL -> store reopen (0 evaluations) -> identical state -> incremental continue"
