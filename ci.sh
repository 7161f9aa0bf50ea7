#!/usr/bin/env bash
# CI gate for the occache workspace.
#
#   ./ci.sh          run everything (lint, tier-1, full workspace tests)
#
# Tier-1 (the must-stay-green bar from ROADMAP.md) is the release build
# plus the root-package test suite; the clippy gate enforces, among the
# default lints, the `unwrap_used` deny in occache-cli/occache-experiments
# (non-test code must return structured errors, not panic).
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt (formatting is enforced) =="
cargo fmt --all -- --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace -- -D warnings

echo "== tier-1: release build + root-package tests =="
cargo build --release
cargo test -q

echo "== full workspace tests =="
cargo test --workspace -q

echo "== perf smoke: one-pass sweep vs direct simulation =="
# Regenerates a Table-7-style grid three ways (direct, sliced, and
# generation-fused streaming), asserts bit-identical ratios, and
# records wall-clock + throughput in BENCH_sweep.json. Pinned to one
# slice thread: spare workers would otherwise shard the grid's single
# engine unit, and the committed trajectory is a one-thread figure.
cargo build --release -q -p occache-bench --bin perf_smoke
OCCACHE_SLICE_THREADS=1 ./target/release/perf_smoke

echo "-- perf trajectory gate: streamed + FIFO throughput vs committed baseline --"
# A real perf regression must fail loudly: each fresh measurement may
# not fall more than 25% below its committed baseline (the timed walls
# are already best-of-N, so scheduler noise is mostly filtered). The
# gate covers both engine families — the streamed LRU fast path and the
# one-pass FIFO engine — so a regression in either fails CI. An
# improvement on every tracked metric rewrites the committed trajectory
# point; anything short of that restores the baseline file so noise
# never erodes the bar.
CURRENT=$(sed -n 's/.*"effective_refs_per_sec": \([0-9]*\).*/\1/p' BENCH_sweep.json)
FIFO_CURRENT=$(sed -n 's/.*"fifo_refs_per_sec": \([0-9]*\).*/\1/p' BENCH_sweep.json)
FIFO_RATIO=$(sed -n 's/.*"fifo_vs_direct": \([0-9.]*\).*/\1/p' BENCH_sweep.json)
BASELINE=$(git show HEAD:BENCH_sweep.json 2>/dev/null \
  | sed -n 's/.*"effective_refs_per_sec": \([0-9]*\).*/\1/p')
FIFO_BASELINE=$(git show HEAD:BENCH_sweep.json 2>/dev/null \
  | sed -n 's/.*"fifo_refs_per_sec": \([0-9]*\).*/\1/p')
[ -n "$CURRENT" ] || { echo "FAIL: no effective_refs_per_sec in BENCH_sweep.json"; exit 1; }
[ -n "$FIFO_CURRENT" ] || { echo "FAIL: no fifo_refs_per_sec in BENCH_sweep.json"; exit 1; }
# The one-pass FIFO engine must beat per-config direct simulation by at
# least 2x on the committed bench grid — below that the engine has lost
# its reason to exist.
[ -n "$FIFO_RATIO" ] || { echo "FAIL: no fifo_vs_direct in BENCH_sweep.json"; exit 1; }
awk -v r="$FIFO_RATIO" 'BEGIN { exit (r >= 2.0) ? 0 : 1 }' \
  || { echo "FAIL: FIFO engine speedup ${FIFO_RATIO}x is below the 2x floor"; exit 1; }
if [ -n "$BASELINE" ]; then
  awk -v c="$CURRENT" -v b="$BASELINE" 'BEGIN { exit (c >= 0.75 * b) ? 0 : 1 }' \
    || { echo "FAIL: effective_refs_per_sec $CURRENT regressed >25% below baseline $BASELINE"; exit 1; }
fi
if [ -n "$FIFO_BASELINE" ]; then
  awk -v c="$FIFO_CURRENT" -v b="$FIFO_BASELINE" 'BEGIN { exit (c >= 0.75 * b) ? 0 : 1 }' \
    || { echo "FAIL: fifo_refs_per_sec $FIFO_CURRENT regressed >25% below baseline $FIFO_BASELINE"; exit 1; }
fi
if [ -z "$BASELINE" ] || [ -z "$FIFO_BASELINE" ]; then
  # No complete committed baseline (first run, or the FIFO fields are
  # new): the fresh measurement becomes the trajectory point.
  echo "   no complete committed baseline; keeping fresh measurement ($CURRENT / $FIFO_CURRENT refs/s)"
elif awk -v c="$CURRENT" -v b="$BASELINE" -v fc="$FIFO_CURRENT" -v fb="$FIFO_BASELINE" \
       'BEGIN { exit (c > b && fc > fb) ? 0 : 1 }'; then
  echo "   improved: $BASELINE -> $CURRENT, fifo $FIFO_BASELINE -> $FIFO_CURRENT refs/s (baseline rewritten)"
else
  git checkout -- BENCH_sweep.json
  echo "   held: $CURRENT / fifo $FIFO_CURRENT refs/s within 25% of baseline (baseline kept)"
fi

echo "== integrity: manifest + verify + supervised fault injection =="
# A real Table 7 run into a scratch results dir, then occache-verify on
# it: manifest hashes, strict journal scan, and sampled bit-exact
# re-simulation through the direct simulator. A single flipped byte in
# either a CSV or a journal record must fail the gate; a re-run must
# repair the damage; an injected hang must surface as a Timeout in
# RUN_REPORT.json; and a second run against a held checkpoint lock must
# fail fast with a diagnostic instead of corrupting the journal.
INT_DIR=target/ci-integrity
INT_REFS=20000
rm -rf "$INT_DIR"
cargo build --release -q -p occache-experiments --bin table7
cargo build --release -q -p occache-cli --bin occache-verify
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/table7
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
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/table7
./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2

echo "-- a flipped journal byte must fail verify, and a re-run must repair it --"
JOURNAL="$INT_DIR/.checkpoint/table7.jsonl"
printf 'X' | dd of="$JOURNAL" bs=1 seek=12 count=1 conv=notrunc status=none
if ./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2 >/dev/null; then
  echo "FAIL: verify passed on a corrupted journal"; exit 1
fi
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/table7
./target/release/occache-verify --dir "$INT_DIR" --refs "$INT_REFS" --sample 2

echo "-- an injected hang must be reported as a timeout --"
OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_FRESH=1 \
  OCCACHE_POINT_TIMEOUT=0.5 OCCACHE_FAULT_POINT=hang:8,4 ./target/release/table7
grep -Eq '"timed_out": [1-9]' "$INT_DIR/RUN_REPORT.json" \
  || { echo "FAIL: hang not reported as a timeout in RUN_REPORT.json"; exit 1; }

echo "-- a held checkpoint lock must fail fast with a diagnostic --"
echo "garbage-holder" > "$INT_DIR/.checkpoint/LOCK"
set +e
LOCK_ERR=$(OCCACHE_RESULTS="$INT_DIR" OCCACHE_REFS="$INT_REFS" ./target/release/table7 2>&1)
LOCK_RC=$?
set -e
if [ "$LOCK_RC" -eq 0 ]; then
  echo "FAIL: run succeeded against a held lock"; exit 1
fi
echo "$LOCK_ERR" | grep -qi "lock" \
  || { echo "FAIL: lock contention diagnostic missing: $LOCK_ERR"; exit 1; }
rm -f "$INT_DIR/.checkpoint/LOCK"

echo "== policy gate: FIFO Table 7 rides the one-pass engines end to end =="
# A full Table 7 run down the FIFO axis must compute every point on a
# slice engine — zero direct-simulator fallbacks — and the same run with
# the FIFO engine kill-switched must take the direct path instead. Both
# facts come from the RUN_METRICS.prom sidecar through occache-top's
# strict exposition parser, not from greps over JSON.
cargo build --release -q -p occache-top --bin occache-top
POL_DIR=target/ci-policy
POL_OFF_DIR=target/ci-policy-direct
rm -rf "$POL_DIR" "$POL_OFF_DIR"
OCCACHE_RESULTS="$POL_DIR" OCCACHE_REFS="$INT_REFS" OCCACHE_REPLACEMENT=fifo \
  ./target/release/table7
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
  OCCACHE_NO_MULTISIM=fifo,random ./target/release/table7
POL_OFF_DIRECT=$(./target/release/occache-top --parse-metrics "$POL_OFF_DIR/RUN_METRICS.prom" \
                   --get occache_run_points_direct_total)
[ -n "$POL_OFF_DIRECT" ] && [ "$POL_OFF_DIRECT" -ge 1 ] \
  || { echo "FAIL: OCCACHE_NO_MULTISIM=fifo,random did not force the direct path"; exit 1; }
for F in "$POL_DIR"/*.csv "$POL_DIR/MANIFEST.json"; do
  cmp "$F" "$POL_OFF_DIR/$(basename "$F")" \
    || { echo "FAIL: $(basename "$F") differs between FIFO engine and direct runs"; exit 1; }
done
echo "   FIFO table7: $POL_FIFO engine points, 0 direct; kill-switched run went direct and matched byte-for-byte"

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
# tuple must appear verbatim in the batch journal.
DUAL_DIR=target/ci-dual
DUAL_REFS=2000
rm -rf "$DUAL_DIR"
OCCACHE_RESULTS="$DUAL_DIR" OCCACHE_REFS="$DUAL_REFS" ./target/release/table7
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
# flushes the progress feed after every point.
curl -s -X POST "http://127.0.0.1:$OBS_PORT/v1/simulate" \
  -d '{"model":"pdp11","refs":2000,"config":{"net":256,"block":16,"sub":8}}' > /dev/null
OCCACHE_RESULTS="$OBS_DIR" OCCACHE_REFS=100000 OCCACHE_PROGRESS_EVERY=1 \
  ./target/release/table7 > /dev/null 2>&1 &
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

echo "ci.sh: all gates passed"
