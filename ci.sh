#!/usr/bin/env bash
# CI gate for the occache workspace.
#
#   ./ci.sh          run everything (lint, rustdoc, tier-1, full workspace tests)
#   ./ci.sh --deep   the same, then the date-seeded proptest pass again at
#                    ten times every test's case count (PROPTEST_CASES=10x)
#
# Tier-1 (the must-stay-green bar from ROADMAP.md) is the release build
# plus the root-package test suite; the clippy gate lints every target,
# tests included, and enforces, among the default lints, the
# `unwrap_used` deny in occache-cli/occache-experiments (non-test code
# must return structured errors, not panic; `clippy.toml` lets tests
# unwrap).
set -euo pipefail
cd "$(dirname "$0")"

DEEP=0
for arg in "$@"; do
  case "$arg" in
    --deep) DEEP=1 ;;
    *) echo "usage: ./ci.sh [--deep]" >&2; exit 2 ;;
  esac
done

echo "== rustfmt (formatting is enforced) =="
cargo fmt --all -- --check

echo "== clippy (warnings are errors, test code included) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (broken or ambiguous doc links are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: release build + root-package tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test --workspace -q

echo "== proptests under a rotating seed =="
# The proptest shim seeds every test from its name, so the runs above
# replay the same cases each time. One more pass of every proptest suite
# under a seed taken from the date explores new cases; a failure prints
# the PROPTEST_SEED and PROPTEST_CASES that replay it.
PT_SEED=$(date -u +%Y%m%d)
echo "   PROPTEST_SEED=$PT_SEED"
# The proptest suites, run under the environment given (a seed, and for
# --deep a case multiplier).
proptest_pass() {
  env "$@" cargo test -q --test policy_equiv --test multisim_equiv --test properties
  env "$@" cargo test -q -p occache-runtime --test streaming --test progress_feed \
    --test metrics_roundtrip --test random_determinism
  env "$@" cargo test -q -p occache-runtime --lib fmt::
  env "$@" cargo test -q -p occache-serve --test http_parser
  env "$@" cargo test -q -p occache-serve --lib router::
  env "$@" cargo test -q -p occache-serve --test client_torn
  env "$@" cargo test -q -p occache-trace --test hasher_oracle --test packed_roundtrip
}
# Every file holding proptest! cases must be run above, or its cases
# never meet the rotating seed: a test file by its package and --test
# name, a library module by its package and --lib filter.
PT_PASS=$(declare -f proptest_pass)
for f in $(grep -rl --include='*.rs' 'proptest!' src tests crates | sort); do
  stem=$(basename "$f" .rs)
  case "$f" in
    crates/*) run="cargo test -q -p occache-$(echo "$f" | cut -d/ -f2) " ;;
    *) run="cargo test -q --" ;;
  esac
  case "$f" in
    tests/*|*/tests/*) target="--test $stem" ;;
    *) target="--lib $stem::" ;;
  esac
  if ! grep -F -- "$run" <<<"$PT_PASS" | grep -w -- "$target" >/dev/null; then
    echo "FAIL: $f holds proptest! cases but proptest_pass does not run it ($target)"
    exit 1
  fi
done
proptest_pass PROPTEST_SEED="$PT_SEED"
if [ "$DEEP" = 1 ]; then
  echo "== deep: the same proptests at ten times the cases =="
  proptest_pass PROPTEST_SEED="$PT_SEED" PROPTEST_CASES=10x
fi

echo "== integrity: manifest + verify + supervised fault injection =="
# A real Table 7 run into a scratch results dir, then occache-verify on
# it: manifest hashes, strict journal scan, and sampled bit-exact
# re-simulation through the direct simulator. A single flipped byte in
# either a CSV or a journal record, or a torn journal tail, must fail
# the gate; a re-run must repair the damage; an injected hang must
# surface as a Timeout in RUN_REPORT.json; and a second run against a
# held checkpoint lock must fail fast with a diagnostic instead of
# corrupting the journal.
INT_DIR=target/ci-integrity
INT_REFS=20000
rm -rf "$INT_DIR"
cargo build --release -q -p occache-experiments --bin all
cargo build --release -q -p occache-cli --bin occache-verify
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/all table7
test -f "$INT_DIR/MANIFEST.json" || { echo "FAIL: no MANIFEST.json"; exit 1; }
test -f "$INT_DIR/RUN_REPORT.json" || { echo "FAIL: no RUN_REPORT.json"; exit 1; }
./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2

echo "-- a flipped CSV byte must fail verify --"
CSV=$(ls "$INT_DIR"/*.csv | head -1)
printf 'X' | dd of="$CSV" bs=1 seek=5 count=1 conv=notrunc status=none
if ./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2 >/dev/null; then
  echo "FAIL: verify passed on a corrupted CSV"; exit 1
fi
# A re-emit regenerates the CSV from the intact journal and heals it.
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/all table7
./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2

echo "-- a flipped journal byte must fail verify, and a re-run must repair it --"
JOURNAL="$INT_DIR/.checkpoint/table7.jsonl"
printf 'X' | dd of="$JOURNAL" bs=1 seek=12 count=1 conv=notrunc status=none
if ./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2 >/dev/null; then
  echo "FAIL: verify passed on a corrupted journal"; exit 1
fi
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/all table7
./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2

echo "-- a torn journal tail must fail verify; a re-run recomputes only the torn point --"
# The batch twin of serve's kill -9 gate: cut the journal's last record
# mid-line, as a crash mid-append would. A re-run must fence the torn
# record off, compute that one point again (RUN_REPORT.json's table7
# phases sum to 1 computed point) and write the same CSVs.
BEFORE_DIR=target/ci-integrity-before
rm -rf "$BEFORE_DIR"
mkdir -p "$BEFORE_DIR"
cp "$INT_DIR"/table7_*.csv "$BEFORE_DIR"/
JOURNAL_BYTES=$(wc -c < "$JOURNAL")
truncate -s $((JOURNAL_BYTES - 20)) "$JOURNAL"
if ./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2 >/dev/null; then
  echo "FAIL: verify passed on a torn journal"; exit 1
fi
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/all table7 > /dev/null
RECOMPUTED=$(grep '"artifact":"table7"' "$INT_DIR/RUN_REPORT.json" \
  | sed 's/.*"computed":\([0-9]*\),.*/\1/' | awk '{ n += $1 } END { print n + 0 }')
[ "$RECOMPUTED" = "1" ] \
  || { echo "FAIL: the torn-tail re-run computed $RECOMPUTED point(s), not 1"; exit 1; }
./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2
for CSV in "$BEFORE_DIR"/table7_*.csv; do
  cmp "$CSV" "$INT_DIR/$(basename "$CSV")" \
    || { echo "FAIL: $(basename "$CSV") changed across the torn-tail repair"; exit 1; }
done
echo "   torn tail: verify failed, the re-run recomputed 1 point, verify passed, CSVs unchanged"

echo "-- an injected hang must be reported as a timeout --"
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_FRESH=1 \
  OCCACHE_POINT_TIMEOUT=0.5 OCCACHE_FAULT_POINT=hang:8,4 ./target/release/all table7
grep -Eq '"timed_out": [1-9]' "$INT_DIR/RUN_REPORT.json" \
  || { echo "FAIL: hang not reported as a timeout in RUN_REPORT.json"; exit 1; }

echo "-- a held checkpoint lock must fail fast with a diagnostic --"
echo "garbage-holder" > "$INT_DIR/.checkpoint/LOCK"
set +e
LOCK_ERR=$(OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/all table7 2>&1)
LOCK_RC=$?
set -e
if [ "$LOCK_RC" -eq 0 ]; then
  echo "FAIL: run succeeded against a held lock"; exit 1
fi
echo "$LOCK_ERR" | grep -qi "lock" \
  || { echo "FAIL: lock contention diagnostic missing: $LOCK_ERR"; exit 1; }
rm -f "$INT_DIR/.checkpoint/LOCK"

echo "-- a results dir computes each design point once: Figures 2 and 8 reuse Table 7 --"
# Figures 2 and 8 plot Table 7's PDP-11 grid. Run into Table 7's results
# dir, each must compute nothing (0 engine and 0 direct points in its
# RUN_METRICS.prom) yet write the bytes a standalone run in a fresh dir
# writes: CSV, journal and MANIFEST line. The serial pool keeps journal
# line order deterministic on both sides.
cargo build --release -q -p occache-experiments --bin all
cargo build --release -q -p occache-top --bin occache-top
REUSE_DIR=target/ci-reuse
rm -rf "$REUSE_DIR"
OCCACHE_RESULTS="$REUSE_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_SLICE_THREADS=1 \
  ./target/release/all table7 > /dev/null
for FIG in fig2 fig8; do
  ALONE_DIR="target/ci-reuse-$FIG"
  rm -rf "$ALONE_DIR"
  OCCACHE_RESULTS="$REUSE_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_SLICE_THREADS=1 \
    ./target/release/all $FIG > /dev/null
  for M in engine_lru engine_fifo engine_random direct; do
    N=$(./target/release/occache-top --parse-metrics "$REUSE_DIR/RUN_METRICS.prom" \
          --get "occache_run_points_${M}_total")
    [ "$N" = "0" ] \
      || { echo "FAIL: $FIG after table7 computed $N point(s) on the $M path"; exit 1; }
  done
  OCCACHE_RESULTS="$ALONE_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_SLICE_THREADS=1 \
    ./target/release/all $FIG > /dev/null
  cmp "$REUSE_DIR/$FIG.csv" "$ALONE_DIR/$FIG.csv" \
    || { echo "FAIL: $FIG.csv differs from a standalone run"; exit 1; }
  cmp "$REUSE_DIR/.checkpoint/$FIG.jsonl" "$ALONE_DIR/.checkpoint/$FIG.jsonl" \
    || { echo "FAIL: the $FIG journal differs from a standalone run"; exit 1; }
  REUSE_LINE=$(grep "\"artifact\":\"$FIG\"" "$REUSE_DIR/MANIFEST.json" | sed 's/,$//')
  ALONE_LINE=$(grep "\"artifact\":\"$FIG\"" "$ALONE_DIR/MANIFEST.json" | sed 's/,$//')
  [ -n "$REUSE_LINE" ] && [ "$REUSE_LINE" = "$ALONE_LINE" ] \
    || { echo "FAIL: the $FIG MANIFEST line differs from a standalone run"; exit 1; }
done
echo "   fig2, fig8: 0 points computed after table7; CSV, journal and MANIFEST line match standalone runs"
# The headline computes each architecture's 1024-byte (8,8) cell before
# Table 7 runs, and keeps no journal: Table 7 must not borrow those
# memory-only points, so its journal and MANIFEST line match a
# standalone run's.
HEAD_DIR=target/ci-reuse-headline
T7_DIR=target/ci-reuse-table7
rm -rf "$HEAD_DIR" "$T7_DIR"
OCCACHE_RESULTS="$HEAD_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_SLICE_THREADS=1 \
  ./target/release/all headline table7 > /dev/null
OCCACHE_RESULTS="$T7_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_SLICE_THREADS=1 \
  ./target/release/all table7 > /dev/null
cmp "$HEAD_DIR/.checkpoint/table7.jsonl" "$T7_DIR/.checkpoint/table7.jsonl" \
  || { echo "FAIL: table7.jsonl after headline differs from a standalone run"; exit 1; }
HEAD_LINE=$(grep '"artifact":"table7"' "$HEAD_DIR/MANIFEST.json" | sed 's/,$//')
T7_LINE=$(grep '"artifact":"table7"' "$T7_DIR/MANIFEST.json" | sed 's/,$//')
[ -n "$HEAD_LINE" ] && [ "$HEAD_LINE" = "$T7_LINE" ] \
  || { echo "FAIL: the table7 MANIFEST lines differ after headline"; exit 1; }
echo "   headline then table7: table7 journal and MANIFEST lines match a standalone run"

echo "== policy gate: FIFO and Random Table 7 ride the one-pass engines end to end =="
# A full Table 7 run down the FIFO axis must compute every point on a
# slice engine — zero direct-simulator fallbacks — and the same run with
# the FIFO engine kill-switched must take the direct path instead; then
# the same pair of runs down the Random axis. Both facts come from the
# RUN_METRICS.prom sidecar through occache-top's strict exposition
# parser, not from greps over JSON.
cargo build --release -q -p occache-top --bin occache-top
POL_DIR=target/ci-policy
POL_OFF_DIR=target/ci-policy-direct
rm -rf "$POL_DIR" "$POL_OFF_DIR"
OCCACHE_RESULTS="$POL_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_REPLACEMENT=fifo \
  ./target/release/all table7
POL_DIRECT=$(./target/release/occache-top --parse-metrics "$POL_DIR/RUN_METRICS.prom" \
               --get occache_run_points_direct_total)
[ "$POL_DIRECT" = "0" ] \
  || { echo "FAIL: FIFO Table 7 fell back to direct simulation for $POL_DIRECT points"; exit 1; }
POL_FIFO=$(./target/release/occache-top --parse-metrics "$POL_DIR/RUN_METRICS.prom" \
             --get occache_run_points_engine_fifo_total)
[ -n "$POL_FIFO" ] && [ "$POL_FIFO" -ge 1 ] \
  || { echo "FAIL: FIFO Table 7 recorded no FIFO-engine points (got '$POL_FIFO')"; exit 1; }
# The per-policy kill-switch is the control: with the FIFO engine
# disabled the identical run must go direct, and the artifacts must
# still come out byte-identical.
OCCACHE_RESULTS="$POL_OFF_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_REPLACEMENT=fifo \
  OCCACHE_NO_MULTISIM=fifo,random ./target/release/all table7
POL_OFF_DIRECT=$(./target/release/occache-top --parse-metrics "$POL_OFF_DIR/RUN_METRICS.prom" \
                   --get occache_run_points_direct_total)
[ -n "$POL_OFF_DIRECT" ] && [ "$POL_OFF_DIRECT" -ge 1 ] \
  || { echo "FAIL: OCCACHE_NO_MULTISIM=fifo,random did not force the direct path"; exit 1; }
for F in "$POL_DIR"/*.csv "$POL_DIR/MANIFEST.json"; do
  cmp "$F" "$POL_OFF_DIR/$(basename "$F")" \
    || { echo "FAIL: $(basename "$F") differs between FIFO engine and direct runs"; exit 1; }
done
echo "   FIFO table7: $POL_FIFO engine points, 0 direct; kill-switched run went direct and matched byte-for-byte"
# Random: the same gate, with the Random engine alone kill-switched in
# the control run. Both runs use the default seed, so the direct path
# must reproduce the engine's draws bit for bit.
POL_RND_DIR=target/ci-policy-random
POL_RND_OFF_DIR=target/ci-policy-random-direct
rm -rf "$POL_RND_DIR" "$POL_RND_OFF_DIR"
OCCACHE_RESULTS="$POL_RND_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_REPLACEMENT=random \
  ./target/release/all table7
POL_RND_DIRECT=$(./target/release/occache-top --parse-metrics "$POL_RND_DIR/RUN_METRICS.prom" \
                   --get occache_run_points_direct_total)
[ "$POL_RND_DIRECT" = "0" ] \
  || { echo "FAIL: Random Table 7 fell back to direct simulation for $POL_RND_DIRECT points"; exit 1; }
POL_RANDOM=$(./target/release/occache-top --parse-metrics "$POL_RND_DIR/RUN_METRICS.prom" \
               --get occache_run_points_engine_random_total)
[ -n "$POL_RANDOM" ] && [ "$POL_RANDOM" -ge 1 ] \
  || { echo "FAIL: Random Table 7 recorded no Random-engine points (got '$POL_RANDOM')"; exit 1; }
OCCACHE_RESULTS="$POL_RND_OFF_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_REPLACEMENT=random \
  OCCACHE_NO_MULTISIM=random ./target/release/all table7
POL_RND_OFF_DIRECT=$(./target/release/occache-top --parse-metrics "$POL_RND_OFF_DIR/RUN_METRICS.prom" \
                       --get occache_run_points_direct_total)
[ -n "$POL_RND_OFF_DIRECT" ] && [ "$POL_RND_OFF_DIRECT" -ge 1 ] \
  || { echo "FAIL: OCCACHE_NO_MULTISIM=random did not force the direct path"; exit 1; }
for F in "$POL_RND_DIR"/*.csv "$POL_RND_DIR/MANIFEST.json"; do
  cmp "$F" "$POL_RND_OFF_DIR/$(basename "$F")" \
    || { echo "FAIL: $(basename "$F") differs between Random engine and direct runs"; exit 1; }
done
echo "   Random table7: $POL_RANDOM engine points, 0 direct; kill-switched run went direct and matched byte-for-byte"
# The per-trace Metrics pool: table6, writes, split, buffers and
# risc2_chip read counters a design point does not carry, so they take
# per-trace rows from evaluate_metrics (split over each trace's
# instruction-only and data-only views, buffers over its
# instruction-only view, risc2_chip over the standard and compacted
# RISC II programs). Each runs once by default and once with every engine
# kill-switched; the CSVs (and MANIFEST.json, where the artifact writes one)
# must match byte for byte.
cargo build --release -q -p occache-experiments --bin all
MET_DIR=target/ci-metrics
MET_OFF_DIR=target/ci-metrics-direct
for BIN in table6 writes split buffers risc2_chip; do
  rm -rf "$MET_DIR" "$MET_OFF_DIR"
  OCCACHE_RESULTS="$MET_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/all $BIN > /dev/null
  OCCACHE_RESULTS="$MET_OFF_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_NO_MULTISIM=all \
    ./target/release/all $BIN > /dev/null
  MET_FILES=("$MET_DIR"/*.csv)
  [ -e "${MET_FILES[0]}" ] || { echo "FAIL: $BIN wrote no CSV"; exit 1; }
  [ -f "$MET_DIR/MANIFEST.json" ] && MET_FILES+=("$MET_DIR/MANIFEST.json")
  for F in "${MET_FILES[@]}"; do
    cmp "$F" "$MET_OFF_DIR/$(basename "$F")" \
      || { echo "FAIL: $BIN $(basename "$F") differs between engine and direct runs"; exit 1; }
  done
  echo "   $BIN: ${#MET_FILES[@]} file(s) byte-identical with OCCACHE_NO_MULTISIM=all"
done

echo "== serving-mode gate: occache-serve driven by occache-loadgen =="
# The root package does not depend on the serve or cli crates, so the
# tier-1 `cargo build --release` does not refresh these binaries.
cargo build --release -q -p occache-serve --bin occache-serve
cargo build --release -q -p occache-cli --bin occache-loadgen
# The dashboard doubles as CI's strict metrics parser (--parse-metrics),
# used by the chaos/recovery/cluster gates below in place of raw greps.
cargo build --release -q -p occache-top --bin occache-top
SERVE_LOG=target/ci-serve.log
SERVE_BENCH=target/ci-BENCH_serve.json
rm -f "$SERVE_LOG" "$SERVE_BENCH"
OCCACHE_SERVE_ADDR=127.0.0.1:0 OCCACHE_SERVE_WORKERS=2 \
  ./target/release/occache-serve > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$SERVE_LOG" 2>/dev/null && break
  sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^occache-serve listening on //p' "$SERVE_LOG")
[ -n "$SERVE_ADDR" ] || { echo "FAIL: occache-serve never came up"; cat "$SERVE_LOG"; exit 1; }
# --check fails unless the repeated point is a cache hit with
# bit-identical metrics and /metrics scrapes clean.
./target/release/occache-loadgen --addr "$SERVE_ADDR" --refs 30000 --check --out "$SERVE_BENCH"
grep -q '"speedup"' "$SERVE_BENCH" \
  || { echo "FAIL: $SERVE_BENCH is missing the speedup figure"; exit 1; }
# Batching must actually pay: the coalesced sweep has to beat
# one-point-per-request by at least 2x.
SPEEDUP=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' "$SERVE_BENCH")
[ -n "$SPEEDUP" ] || { echo "FAIL: unparseable speedup in $SERVE_BENCH"; exit 1; }
awk -v s="$SPEEDUP" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' \
  || { echo "FAIL: batched speedup ${SPEEDUP}x is below the 2x floor"; exit 1; }
echo "   batched sweep speedup: ${SPEEDUP}x (floor 2x)"

echo "-- dual front-end bit-identity: batch journal vs served sweep --"
# The same tiny grid through both front-ends of occache-runtime: the
# batch harness journals each point with shortest-exact floats keyed by
# the content-addressed point key, and /v1/sweep responses carry the
# same key and the same formatting — so every served (key, metrics)
# tuple must appear verbatim in the batch journal. The batch side
# generates its traces serially and the server on its pool, so a
# difference between pooled and serial generation changes the point
# keys and fails the comparison.
DUAL_DIR=target/ci-dual
DUAL_REFS=2000
rm -rf "$DUAL_DIR"
OCCACHE_RESULTS="$DUAL_DIR" OCCACHE_REFS="$DUAL_REFS" OCCACHE_SLICE_THREADS=1 \
  ./target/release/all table7
sed -nE 's/.*"key":"([0-9a-f]{16})","miss":([^,]*),"traffic":([^,]*),"nibble":([^,]*),"redundant":([^,}]*).*/\1 \2 \3 \4 \5/p' \
  "$DUAL_DIR/.checkpoint/table7.jsonl" | sort > target/ci-dual-batch.txt
curl -s -X POST "http://$SERVE_ADDR/v1/sweep" \
  -d "{\"model\":\"pdp11\",\"refs\":$DUAL_REFS,\"grid\":{\"nets\":[64,256,1024]}}" \
  > target/ci-dual-serve.json
grep -oE '"key":"[0-9a-f]{16}","cached":(true|false),"config":\{[^}]*\},"gross_size":[0-9]+,"miss_ratio":[^,]*,"traffic_ratio":[^,]*,"nibble_traffic_ratio":[^,]*,"redundant_load_fraction":[^,}]*' \
  target/ci-dual-serve.json \
  | sed -E 's/"key":"([0-9a-f]{16})".*"miss_ratio":([^,]*),"traffic_ratio":([^,]*),"nibble_traffic_ratio":([^,]*),"redundant_load_fraction":(.*)/\1 \2 \3 \4 \5/' \
  | sort > target/ci-dual-serve.txt
SERVED=$(wc -l < target/ci-dual-serve.txt)
[ "$SERVED" -ge 10 ] || { echo "FAIL: served sweep returned only $SERVED points"; exit 1; }
MISSING=$(comm -23 target/ci-dual-serve.txt target/ci-dual-batch.txt)
if [ -n "$MISSING" ]; then
  echo "FAIL: served metrics not bit-identical to the batch journal:"
  echo "$MISSING"
  exit 1
fi
echo "   $SERVED served points bit-identical to the batch journal"

kill -INT "$SERVE_PID"
set +e
wait "$SERVE_PID"
SERVE_RC=$?
set -e
if [ "$SERVE_RC" -ne 0 ]; then
  echo "FAIL: occache-serve did not shut down cleanly on SIGINT (exit $SERVE_RC)"
  cat "$SERVE_LOG"; exit 1
fi
grep -q "shut down cleanly" "$SERVE_LOG" \
  || { echo "FAIL: graceful-shutdown message missing"; cat "$SERVE_LOG"; exit 1; }

echo "== chaos gate: deterministic fault injection vs the resilient loadgen =="
# The server tears every 5th response write and drops every 7th
# connection (OCCACHE_SERVE_FAULT); the loadgen retries transport faults
# and retryable structured errors. The run must end with every request
# answered — correctly — or fail; `timeout` bounds the whole run so a
# hung connection past its deadline fails the gate rather than wedging CI.
CHAOS_LOG=target/ci-chaos.log
CHAOS_BENCH=target/ci-BENCH_chaos.json
CHAOS_JOURNAL=target/ci-chaos-journal
rm -rf "$CHAOS_LOG" "$CHAOS_BENCH" "$CHAOS_JOURNAL" target/ci-chaos-*.txt
mkdir -p "$CHAOS_JOURNAL"
OCCACHE_SERVE_ADDR=127.0.0.1:0 OCCACHE_SERVE_WORKERS=2 \
  OCCACHE_SERVE_FAULT=torn-write:5,drop-conn:7 \
  OCCACHE_SERVE_JOURNAL="$CHAOS_JOURNAL" \
  ./target/release/occache-serve > "$CHAOS_LOG" 2>&1 &
CHAOS_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$CHAOS_LOG" 2>/dev/null && break
  sleep 0.1
done
CHAOS_ADDR=$(sed -n 's/^occache-serve listening on //p' "$CHAOS_LOG")
[ -n "$CHAOS_ADDR" ] || { echo "FAIL: chaotic occache-serve never came up"; cat "$CHAOS_LOG"; exit 1; }
timeout 180 ./target/release/occache-loadgen --addr "$CHAOS_ADDR" --refs 20000 \
    --retries 12 --timeout 30 --check \
    --out "$CHAOS_BENCH" --digest target/ci-chaos-before.txt \
  || { echo "FAIL: loadgen did not complete under chaos"; cat "$CHAOS_LOG"; exit 1; }
# The client must actually have exercised its retry path...
grep -Eq '"retries": [1-9]' "$CHAOS_BENCH" \
  || { echo "FAIL: chaos run finished without a single client retry"; cat "$CHAOS_BENCH"; exit 1; }
# ...and the injected fault counters must be visible on /metrics (the
# scrape itself can be torn, so allow a few attempts). The strict
# exposition parser replaces the old greps: a torn scrape now fails the
# parse instead of silently matching half a line.
METRICS_OK=
for _ in $(seq 1 6); do
  if curl -s "http://$CHAOS_ADDR/metrics" > target/ci-chaos-metrics.txt 2>/dev/null \
     && TORN=$(./target/release/occache-top --parse-metrics target/ci-chaos-metrics.txt \
                 --get occache_fault_torn_write_injected_total) \
     && DROP=$(./target/release/occache-top --parse-metrics target/ci-chaos-metrics.txt \
                 --get occache_fault_drop_conn_injected_total) \
     && [ "$TORN" -ge 1 ] && [ "$DROP" -ge 1 ]; then
    METRICS_OK=1; break
  fi
  sleep 0.2
done
[ -n "$METRICS_OK" ] \
  || { echo "FAIL: injected fault counters missing from /metrics"; cat target/ci-chaos-metrics.txt; exit 1; }
echo "   chaos survived: $(sed -n 's/.*"resilience": {\(.*\)}.*/\1/p' "$CHAOS_BENCH")"

echo "-- crash recovery: kill -9, restart, bit-identical answers from the journal --"
# No graceful shutdown: the write-behind journal alone must carry every
# computed point across the crash.
kill -9 "$CHAOS_PID"
set +e; wait "$CHAOS_PID" 2>/dev/null; set -e
RECOVER_LOG=target/ci-recover.log
RECOVER_BENCH=target/ci-BENCH_recover.json
rm -f "$RECOVER_LOG" "$RECOVER_BENCH"
OCCACHE_SERVE_ADDR=127.0.0.1:0 OCCACHE_SERVE_WORKERS=2 \
  OCCACHE_SERVE_JOURNAL="$CHAOS_JOURNAL" \
  ./target/release/occache-serve > "$RECOVER_LOG" 2>&1 &
RECOVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$RECOVER_LOG" 2>/dev/null && break
  sleep 0.1
done
RECOVER_ADDR=$(sed -n 's/^occache-serve listening on //p' "$RECOVER_LOG")
[ -n "$RECOVER_ADDR" ] || { echo "FAIL: restarted occache-serve never came up"; cat "$RECOVER_LOG"; exit 1; }
grep -Eq "crash recovery: [1-9][0-9]* point" "$RECOVER_LOG" \
  || { echo "FAIL: restart did not report journal recovery"; cat "$RECOVER_LOG"; exit 1; }
timeout 120 ./target/release/occache-loadgen --addr "$RECOVER_ADDR" --refs 20000 \
    --retries 8 --timeout 30 --check \
    --out "$RECOVER_BENCH" --digest target/ci-chaos-after.txt \
  || { echo "FAIL: loadgen failed against the recovered server"; cat "$RECOVER_LOG"; exit 1; }
cmp target/ci-chaos-before.txt target/ci-chaos-after.txt \
  || { echo "FAIL: post-crash answers are not bit-identical to pre-crash"; \
       diff target/ci-chaos-before.txt target/ci-chaos-after.txt | head; exit 1; }
# Recovery means recall, not recompute: every point must have come from
# the journal-warmed cache.
curl -s "http://$RECOVER_ADDR/metrics" > target/ci-recover-metrics.txt
RECOMPUTED=$(./target/release/occache-top --parse-metrics target/ci-recover-metrics.txt \
               --get occache_points_computed_total)
[ "$RECOMPUTED" = "0" ] \
  || { echo "FAIL: recovered server recomputed $RECOMPUTED points instead of serving the journal"; \
       exit 1; }
echo "   $(wc -l < target/ci-chaos-after.txt) points bit-identical across kill -9"
kill -INT "$RECOVER_PID"
set +e; wait "$RECOVER_PID"; RECOVER_RC=$?; set -e
[ "$RECOVER_RC" -eq 0 ] \
  || { echo "FAIL: recovered server did not shut down cleanly"; cat "$RECOVER_LOG"; exit 1; }

echo "== cluster gate: three nodes + router, peer chaos, one node killed =="
# A three-node tier behind occache-route. The router's peer calls run
# under drop-peer chaos; the open-loop loadgen routes client-side with
# the same rendezvous hash and must meet its p99 SLO; results must be
# bit-identical to a fresh single-node run; node 3 is SIGTERMed and the
# router's breaker must mark it down while every request keeps getting
# an answer; all four processes must drain cleanly on SIGTERM.
cargo build --release -q -p occache-serve --bin occache-route
CL_DIR=target/ci-cluster
rm -rf "$CL_DIR"
mkdir -p "$CL_DIR"
CL_PORTS=$(./target/release/occache-loadgen --free-ports 5)
CL_P1=$(echo "$CL_PORTS" | sed -n 1p); CL_P2=$(echo "$CL_PORTS" | sed -n 2p)
CL_P3=$(echo "$CL_PORTS" | sed -n 3p); CL_PR=$(echo "$CL_PORTS" | sed -n 4p)
CL_PS=$(echo "$CL_PORTS" | sed -n 5p)
CL_PEERS="127.0.0.1:$CL_P1,127.0.0.1:$CL_P2,127.0.0.1:$CL_P3"
CL_PIDS=()
for P in "$CL_P1" "$CL_P2" "$CL_P3"; do
  OCCACHE_SERVE_ADDR="127.0.0.1:$P" OCCACHE_PEERS="$CL_PEERS" \
    OCCACHE_SELF="127.0.0.1:$P" OCCACHE_SERVE_WORKERS=2 \
    OCCACHE_SERVE_JOURNAL="$CL_DIR/j$P" \
    ./target/release/occache-serve > "$CL_DIR/node$P.log" 2>&1 &
  CL_PIDS+=($!)
done
OCCACHE_PEERS="$CL_PEERS" OCCACHE_ROUTE_ADDR="127.0.0.1:$CL_PR" \
  OCCACHE_SERVE_FAULT=drop-peer:2 \
  ./target/release/occache-route > "$CL_DIR/route.log" 2>&1 &
CL_ROUTE_PID=$!
for P in "$CL_P1" "$CL_P2" "$CL_P3" "$CL_PR"; do
  CL_UP=
  for _ in $(seq 1 100); do
    if curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$P/v1/health" \
       | grep -q 200; then CL_UP=1; break; fi
    sleep 0.1
  done
  [ -n "$CL_UP" ] || { echo "FAIL: 127.0.0.1:$P never became healthy"; cat "$CL_DIR"/*.log; exit 1; }
done

echo "-- open-loop loadgen across the shards, p99 SLO asserted --"
timeout 180 ./target/release/occache-loadgen --peers "$CL_PEERS" \
    --rate 40 --duration 5 --keyspace 32 --refs 20000 --slo-p99-ms 5000 \
    --out "$CL_DIR/bench.json" --digest "$CL_DIR/cluster.digest" \
  || { echo "FAIL: cluster loadgen failed or missed its SLO"; cat "$CL_DIR"/*.log; exit 1; }
grep -q '"slo_met": true' "$CL_DIR/bench.json" \
  || { echo "FAIL: bench entry does not record the SLO as met"; cat "$CL_DIR/bench.json"; exit 1; }

echo "-- bit-identity: the same keyspace on a fresh single node --"
OCCACHE_SERVE_ADDR="127.0.0.1:$CL_PS" OCCACHE_SERVE_WORKERS=2 \
  ./target/release/occache-serve > "$CL_DIR/single.log" 2>&1 &
CL_SINGLE_PID=$!
for _ in $(seq 1 100); do
  curl -s -o /dev/null "http://127.0.0.1:$CL_PS/v1/health" && break
  sleep 0.1
done
timeout 180 ./target/release/occache-loadgen --peers "127.0.0.1:$CL_PS" \
    --rate 40 --duration 5 --keyspace 32 --refs 20000 \
    --out "$CL_DIR/bench_single.json" --digest "$CL_DIR/single.digest" \
  || { echo "FAIL: single-node comparison run failed"; cat "$CL_DIR/single.log"; exit 1; }
cmp "$CL_DIR/cluster.digest" "$CL_DIR/single.digest" \
  || { echo "FAIL: cluster digests differ from the single-node run"; \
       diff "$CL_DIR/cluster.digest" "$CL_DIR/single.digest" | head; exit 1; }
echo "   $(wc -l < "$CL_DIR/cluster.digest") points bit-identical across 3-node and 1-node runs"
kill -INT "$CL_SINGLE_PID"
set +e; wait "$CL_SINGLE_PID"; set -e

echo "-- scatter/merge through the router under drop-peer chaos --"
curl -s -X POST "http://127.0.0.1:$CL_PR/v1/sweep" \
  -d '{"model":"pdp11","refs":20000,"grid":{"nets":[256,512,1024]}}' \
  > "$CL_DIR/router_sweep.json"
grep -q '"failures":\[\]' "$CL_DIR/router_sweep.json" \
  || { echo "FAIL: routed sweep reported failures"; head -c 600 "$CL_DIR/router_sweep.json"; exit 1; }
curl -s "http://127.0.0.1:$CL_PR/metrics" > "$CL_DIR/route_metrics.txt"
grep -Eq 'occache_fault_drop_peer_injected_total [1-9]' "$CL_DIR/route_metrics.txt" \
  || { echo "FAIL: drop-peer chaos never fired on the router"; exit 1; }

echo "-- peer warm fill: a node must fetch remote-owned points, not recompute --"
curl -s -X POST "http://127.0.0.1:$CL_P1/v1/sweep" \
  -d '{"model":"pdp11","refs":20000,"grid":{"nets":[256,512,1024]}}' > /dev/null
curl -s "http://127.0.0.1:$CL_P1/metrics" > "$CL_DIR/node1_metrics.txt"
FILLS=$(./target/release/occache-top --parse-metrics "$CL_DIR/node1_metrics.txt" \
          --get occache_peer_fill_points_total)
[ -n "$FILLS" ] && [ "$FILLS" -ge 1 ] \
  || { echo "FAIL: no peer fills recorded on node 1 (got '$FILLS')"; \
       grep occache_peer "$CL_DIR/node1_metrics.txt"; exit 1; }

echo "-- node 3 SIGTERMed: breaker must trip, requests must keep working --"
kill -TERM "${CL_PIDS[2]}"
set +e; wait "${CL_PIDS[2]}"; CL_N3_RC=$?; set -e
[ "$CL_N3_RC" -eq 0 ] \
  || { echo "FAIL: node 3 did not drain cleanly on SIGTERM"; cat "$CL_DIR/node$CL_P3.log"; exit 1; }
sleep 2.5  # two failed probe rounds trip the router's breaker
CL_ANSWERED=
for _ in $(seq 1 10); do
  if curl -s -X POST "http://127.0.0.1:$CL_PR/v1/simulate" \
       -d '{"model":"pdp11","refs":20000,"config":{"net":256,"block":16,"sub":8}}' \
     | grep -q '"miss_ratio"'; then CL_ANSWERED=1; break; fi
  sleep 0.3
done
[ -n "$CL_ANSWERED" ] \
  || { echo "FAIL: router stopped answering after losing one node"; cat "$CL_DIR/route.log"; exit 1; }
curl -s "http://127.0.0.1:$CL_PR/metrics" > "$CL_DIR/route_metrics2.txt"
DOWNS=$(./target/release/occache-top --parse-metrics "$CL_DIR/route_metrics2.txt" \
          --get occache_peer_down_total)
[ -n "$DOWNS" ] && [ "$DOWNS" -ge 1 ] \
  || { echo "FAIL: router never marked the dead node down (got '$DOWNS')"; \
       grep occache_peer "$CL_DIR/route_metrics2.txt"; exit 1; }
N3_STATE=$(./target/release/occache-top --parse-metrics "$CL_DIR/route_metrics2.txt" \
             --get "occache_peer_state{peer=\"127.0.0.1:$CL_P3\"}")
[ "$N3_STATE" = "0" ] \
  || { echo "FAIL: dead node not shown as down in occache_peer_state (got '$N3_STATE')"; \
       grep occache_peer_state "$CL_DIR/route_metrics2.txt"; exit 1; }

echo "-- clean SIGTERM drain of the remaining processes --"
for PID in "$CL_ROUTE_PID" "${CL_PIDS[0]}" "${CL_PIDS[1]}"; do
  kill -TERM "$PID"
  set +e; wait "$PID"; CL_RC=$?; set -e
  [ "$CL_RC" -eq 0 ] || { echo "FAIL: pid $PID exited $CL_RC on SIGTERM"; cat "$CL_DIR"/*.log; exit 1; }
done
grep -q "shut down cleanly" "$CL_DIR/route.log" \
  || { echo "FAIL: router drain message missing"; cat "$CL_DIR/route.log"; exit 1; }
echo "   3-node cluster survived chaos, fill, and a node kill"

echo "== observability gate: occache-top over a live sweep and a live node =="
# One dashboard frame, built entirely from real sources: the atomically
# flushed progress feed of a sweep that is still running, the
# /v1/status + /metrics of a live serve node (through the strict
# exposition parser), and the checkpoint journals on disk. The gate
# asserts every pane end to end, then re-checks the sealed state after
# the sweep lands.
OBS_DIR=target/ci-obs
OBS_LOG=target/ci-obs-serve.log
rm -rf "$OBS_DIR" "$OBS_LOG" target/ci-obs-frame.txt target/ci-obs-final.txt
OBS_PORT=$(./target/release/occache-loadgen --free-ports 1)
# A self-entry in OCCACHE_PEERS makes the node export occache_peer_state,
# so the frame carries a breaker column to assert on.
OCCACHE_SERVE_ADDR="127.0.0.1:$OBS_PORT" OCCACHE_SERVE_WORKERS=2 \
  OCCACHE_PEERS="127.0.0.1:$OBS_PORT" OCCACHE_SELF="127.0.0.1:$OBS_PORT" \
  ./target/release/occache-serve > "$OBS_LOG" 2>&1 &
OBS_PID=$!
for _ in $(seq 1 100); do
  curl -s -o /dev/null "http://127.0.0.1:$OBS_PORT/v1/health" && break
  sleep 0.1
done
# Warm the node so the latency quantiles exist, then start a sweep that
# flushes the progress feed after every point. The engines are switched
# off so every config is its own unit and points land one by one: on the
# engine path each architecture's grid is one unit that lands all at
# once, and on a small box the phase can seal between two polls.
curl -s -X POST "http://127.0.0.1:$OBS_PORT/v1/simulate" \
  -d '{"model":"pdp11","refs":2000,"config":{"net":256,"block":16,"sub":8}}' > /dev/null
OCCACHE_RESULTS="$OBS_DIR" OCCACHE_REFS=100000 OCCACHE_PROGRESS_EVERY=1 \
  OCCACHE_NO_MULTISIM=all ./target/release/all table7 > /dev/null 2>&1 &
OBS_SWEEP_PID=$!
OBS_LIVE=
for _ in $(seq 1 300); do
  ./target/release/occache-top --once --plain --no-bench \
    --results "$OBS_DIR" --metrics "127.0.0.1:$OBS_PORT" > target/ci-obs-frame.txt || true
  if grep -q " table7 " target/ci-obs-frame.txt \
     && grep -q "live" target/ci-obs-frame.txt \
     && grep -Eq "computed [1-9]" target/ci-obs-frame.txt; then
    OBS_LIVE=1; break
  fi
  kill -0 "$OBS_SWEEP_PID" 2>/dev/null || break
  sleep 0.1
done
[ -n "$OBS_LIVE" ] \
  || { echo "FAIL: occache-top never showed a live phase with computed points"; \
       cat target/ci-obs-frame.txt; exit 1; }
# The same frame must carry the live node's ops fields.
grep -q "occache-serve" target/ci-obs-frame.txt \
  || { echo "FAIL: serve node missing from the ops pane"; cat target/ci-obs-frame.txt; exit 1; }
grep -Eq "queue [0-9]" target/ci-obs-frame.txt \
  || { echo "FAIL: queue depth missing from the ops pane"; cat target/ci-obs-frame.txt; exit 1; }
grep -q "peers: 127.0.0.1:$OBS_PORT up" target/ci-obs-frame.txt \
  || { echo "FAIL: breaker state missing from the ops pane"; cat target/ci-obs-frame.txt; exit 1; }
set +e; wait "$OBS_SWEEP_PID"; OBS_SWEEP_RC=$?; set -e
[ "$OBS_SWEEP_RC" -eq 0 ] || { echo "FAIL: observability sweep exited $OBS_SWEEP_RC"; exit 1; }
# After the run: feed sealed, report complete, journal healthy in the
# run browser.
./target/release/occache-top --once --plain --no-bench \
  --results "$OBS_DIR" > target/ci-obs-final.txt
grep -q "sealed" target/ci-obs-final.txt \
  || { echo "FAIL: progress feed not sealed after the sweep"; cat target/ci-obs-final.txt; exit 1; }
grep -q "report: complete" target/ci-obs-final.txt \
  || { echo "FAIL: RUN_REPORT not complete after the sweep"; cat target/ci-obs-final.txt; exit 1; }
grep -Eq "table7 .* ok" target/ci-obs-final.txt \
  || { echo "FAIL: sealed journal not shown healthy in the run browser"; \
       cat target/ci-obs-final.txt; exit 1; }
kill -INT "$OBS_PID"
set +e; wait "$OBS_PID"; OBS_RC=$?; set -e
[ "$OBS_RC" -eq 0 ] \
  || { echo "FAIL: observability node did not shut down cleanly"; cat "$OBS_LOG"; exit 1; }
echo "   live frame asserted: sweep progress, ops fields, sealed run browser"

echo "== perf gate: perfbench sweep records vs the committed trajectory =="
# The repository benchmark (perfbench/, its own cargo workspace) times
# the paper's Table 7 sweeps and checks the outputs it timed: perfbench
# exits non-zero when any sampled point differs from the direct
# simulator or a repeated pass changes a bit, and `set -e` fails CI on
# that. Two runs feed the gate: `sweep-lru` end to end (the streamed LRU
# engine at 2 threads) and `sweep-policies` traced (per-layer FIFO
# and Random engine costs, and the LRU engine's cost on the
# load-forward and copy-back twins). Each run's `# record` object,
# which names the box (nproc, threads, rustc, commit), becomes one key
# of a fresh record file under $PB_DIR; it replaces BENCH_sweep.json
# only when it improves on it, so a failing or merely level run leaves
# the committed bar untouched.
#
# An offline build of perfbench rewrites perfbench/Cargo.lock whenever
# the workspace's crate graph has moved on from it. The lock belongs to
# perfbench, so CI snapshots it and puts it back after the build,
# leaving the tree as it found it.
PB_DIR=target/ci-perfbench
rm -rf "$PB_DIR"
mkdir -p "$PB_DIR"
cp perfbench/Cargo.lock "$PB_DIR/Cargo.lock"
PB_BUILT=0
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml && PB_BUILT=1
cp "$PB_DIR/Cargo.lock" perfbench/Cargo.lock
[ "$PB_BUILT" = 1 ] || { echo "FAIL: perfbench did not build"; exit 1; }
# perfbench_record WORKLOAD TRACE: one short run; its record line lands
# in $PB_DIR/WORKLOAD.record.
perfbench_record() {
  perfbench/target/release/perfbench --workload "$1" --seed 0 --seconds 5 --trace "$2" \
    > "$PB_DIR/$1.out" \
    || { echo "FAIL: perfbench --workload $1 exited non-zero (an output check failed)"; exit 1; }
  sed -n 's/^# record //p' "$PB_DIR/$1.out" > "$PB_DIR/$1.record"
  [ -s "$PB_DIR/$1.record" ] || { echo "FAIL: perfbench --workload $1 printed no record"; exit 1; }
}
perfbench_record sweep-lru 0
perfbench_record sweep-policies 1
printf '{\n"sweep-lru": %s,\n"sweep-policies": %s\n}\n' \
  "$(cat "$PB_DIR/sweep-lru.record")" "$(cat "$PB_DIR/sweep-policies.record")" > "$PB_DIR/fresh.json"
git show HEAD:BENCH_sweep.json > "$PB_DIR/committed.json" 2>/dev/null || true
# metric FILE WORKLOAD NAME: one metric's value from a workload's record.
metric() {
  sed -n "/^\"$2\": /s/.*\"$3\": {\"value\": \([^,}]*\).*/\1/p" "$1"
}
LRU=$(metric "$PB_DIR/fresh.json" sweep-lru sim_refs_per_s)
FIFO=$(metric "$PB_DIR/fresh.json" sweep-policies core.multisim.fifo_ns_per_ref)
RANDOM_NS=$(metric "$PB_DIR/fresh.json" sweep-policies core.multisim.random_ns_per_ref)
TWINS=$(metric "$PB_DIR/fresh.json" sweep-policies core.multisim.lru_ns_per_ref)
DIRECT_POINTS=$(metric "$PB_DIR/fresh.json" sweep-policies runtime.direct_points)
DIRECT_UNITS=$(metric "$PB_DIR/fresh.json" sweep-policies runtime.units.direct)
LRU_BASE=$(metric "$PB_DIR/committed.json" sweep-lru sim_refs_per_s)
FIFO_BASE=$(metric "$PB_DIR/committed.json" sweep-policies core.multisim.fifo_ns_per_ref)
RANDOM_BASE=$(metric "$PB_DIR/committed.json" sweep-policies core.multisim.random_ns_per_ref)
TWINS_BASE=$(metric "$PB_DIR/committed.json" sweep-policies core.multisim.lru_ns_per_ref)
for pair in "sim_refs_per_s:$LRU" "core.multisim.fifo_ns_per_ref:$FIFO" \
            "core.multisim.random_ns_per_ref:$RANDOM_NS" \
            "core.multisim.lru_ns_per_ref:$TWINS" "runtime.direct_points:$DIRECT_POINTS" \
            "runtime.units.direct:$DIRECT_UNITS"; do
  [ -n "${pair#*:}" ] || { echo "FAIL: no ${pair%%:*} in the perfbench records"; exit 1; }
done
# Every sweep-policies config, the load-forward and copy-back twins
# included, must ride a one-pass engine: any slide back onto the direct
# simulator fails here.
awk -v p="$DIRECT_POINTS" -v u="$DIRECT_UNITS" 'BEGIN { exit (p == 0 && u == 0) ? 0 : 1 }' \
  || { echo "FAIL: sweep-policies ran $DIRECT_POINTS point(s) in $DIRECT_UNITS unit(s) on the direct simulator; every config must ride an engine"; exit 1; }
# A real perf regression must fail loudly: LRU throughput may not fall
# more than 25% below its committed value, nor FIFO ns/ref, Random
# ns/ref or the twins' LRU ns/ref rise past committed / 0.75 (the same
# 25% throughput bound).
# A committed value of 0 means that engine did not run in the committed
# record, so there is nothing to ratchet against yet.
if [ -n "$LRU_BASE" ]; then
  awk -v c="$LRU" -v b="$LRU_BASE" 'BEGIN { exit (c >= 0.75 * b) ? 0 : 1 }' \
    || { echo "FAIL: sweep-lru sim_refs_per_s $LRU regressed >25% below baseline $LRU_BASE"; exit 1; }
fi
if [ -n "$FIFO_BASE" ]; then
  awk -v c="$FIFO" -v b="$FIFO_BASE" 'BEGIN { exit (c <= b / 0.75) ? 0 : 1 }' \
    || { echo "FAIL: sweep-policies core.multisim.fifo_ns_per_ref $FIFO regressed >25% above baseline $FIFO_BASE"; exit 1; }
fi
if [ -n "$RANDOM_BASE" ] && awk -v b="$RANDOM_BASE" 'BEGIN { exit (b > 0) ? 0 : 1 }'; then
  awk -v c="$RANDOM_NS" -v b="$RANDOM_BASE" 'BEGIN { exit (c <= b / 0.75) ? 0 : 1 }' \
    || { echo "FAIL: sweep-policies core.multisim.random_ns_per_ref $RANDOM_NS regressed >25% above baseline $RANDOM_BASE"; exit 1; }
else
  RANDOM_BASE=
fi
if [ -n "$TWINS_BASE" ] && awk -v b="$TWINS_BASE" 'BEGIN { exit (b > 0) ? 0 : 1 }'; then
  awk -v c="$TWINS" -v b="$TWINS_BASE" 'BEGIN { exit (c <= b / 0.75) ? 0 : 1 }' \
    || { echo "FAIL: sweep-policies core.multisim.lru_ns_per_ref $TWINS regressed >25% above baseline $TWINS_BASE"; exit 1; }
else
  TWINS_BASE=
fi
# An improvement on every ratcheted metric rewrites the committed
# trajectory point; anything short of that leaves the committed file
# as it is, so noise never erodes the bar. A committed record without
# the Random or twins' figure takes its first one with the next
# rewrite that improves the others.
if [ -z "$LRU_BASE" ] || [ -z "$FIFO_BASE" ]; then
  cp "$PB_DIR/fresh.json" BENCH_sweep.json
  echo "   no complete committed baseline; keeping fresh measurement ($LRU refs/s, fifo $FIFO ns/ref, random $RANDOM_NS ns/ref, twins $TWINS ns/ref)"
elif awk -v c="$LRU" -v b="$LRU_BASE" -v fc="$FIFO" -v fb="$FIFO_BASE" -v rc="$RANDOM_NS" -v rb="$RANDOM_BASE" \
       -v tc="$TWINS" -v tb="$TWINS_BASE" \
       'BEGIN { exit (c > b && fc < fb && (rb == "" || rc < rb) && (tb == "" || tc < tb)) ? 0 : 1 }'; then
  cp "$PB_DIR/fresh.json" BENCH_sweep.json
  echo "   improved: $LRU_BASE -> $LRU refs/s, fifo $FIFO_BASE -> $FIFO ns/ref, random ${RANDOM_BASE:-none} -> $RANDOM_NS ns/ref, twins ${TWINS_BASE:-none} -> $TWINS ns/ref (baseline rewritten)"
else
  echo "   held: $LRU refs/s, fifo $FIFO ns/ref, random $RANDOM_NS ns/ref, twins $TWINS ns/ref within bounds, no direct points (baseline kept)"
fi

echo "ci.sh: all gates passed"
