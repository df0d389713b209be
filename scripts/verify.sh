#!/usr/bin/env bash
# Full verification gate: build, tests, doc tests, and warning-free docs.
#
# NB: the root Cargo.toml is both a [workspace] and the facade [package],
# so every cargo invocation here passes --workspace explicitly — a bare
# `cargo test` at the root only covers the facade crate.
set -euo pipefail
cd "$(dirname "$0")/.."

VERIFY_TMP="$(mktemp -d)"
trap 'rm -rf "$VERIFY_TMP"' EXIT

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo fmt --all --check"
# Formatting gate over the whole workspace: every crate under crates/ and
# the facade (src, tests, examples), so a new crate is covered too.
cargo fmt --all --check

echo "==> crate layering (the training core and the planner daemon never link the data plane)"
# DistTrain disaggregates preprocessing from training (§5.1): only dt-check,
# dt-bench and the facade may link dt-preprocess. Written to a file first:
# piping cargo tree into grep -q can SIGPIPE it under pipefail.
for crate in disttrain-core dt-serve; do
    cargo tree --offline -q -p "$crate" -e normal --prefix none > "$VERIFY_TMP/tree.txt"
    if grep -q '^dt-preprocess ' "$VERIFY_TMP/tree.txt"; then
        echo "$crate links dt-preprocess (cargo tree -p $crate -e normal)" >&2
        exit 1
    fi
done

echo "==> no unused workspace dependency edges"
# Every dt-*/disttrain-core dependency a crate declares must be named
# (as its dt_*/disttrain_core identifier) somewhere in that crate's
# src/, tests/ or benches/. Offline: manifests and sources only.
UNUSED=""
for manifest in crates/*/Cargo.toml; do
    dir="${manifest%/Cargo.toml}"
    sources=()
    for sub in src tests benches; do
        [ -d "$dir/$sub" ] && sources+=("$dir/$sub")
    done
    for dep in $(sed -nE 's/^(dt-[a-z]+|disttrain-core)\.workspace = true$/\1/p' "$manifest"); do
        grep -rqw "${dep//-/_}" "${sources[@]}" || UNUSED="$UNUSED $dir->$dep"
    done
done
[ -z "$UNUSED" ] || { echo "declared but unused dependencies:$UNUSED" >&2; exit 1; }

echo "==> no dead public surface (scripts/dead_pub.sh)"
# Every pub fn must be called from non-test code (compiler pass: each is
# tagged #[deprecated] in a temp copy of the tree, and a fn no warning
# names is dead), and every pub struct/enum/const/type/trait name must
# appear in the non-test code besides its own definition (name pass),
# unless scripts/dead_pub_allow.txt lists the item with a reason.
scripts/dead_pub.sh

echo "==> non-test code lines against HEAD (scripts/loc.sh, information only)"
# Prints, never gates: run here so the script that reproduces each PR's
# LOC delta keeps working.
scripts/loc.sh HEAD

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> repro check --seeds 200 (property-check & differential-oracle suite)"
# Deterministic: any failure prints a one-line reproducer
# (repro check --prop <name> --seed <s> --size <k>) that replays the case.
./target/release/repro check --seeds 200 | tee "$VERIFY_TMP/check.log"

# Cross-toolchain determinism gate: the check transcript — property names,
# case counts, verdicts — must hash identically on every machine and
# toolchain (the suite is seeded and std-only; only the "(N ms)" timing
# suffixes are host-dependent, so they are normalized away). A drift here
# means a kernel or generator changed behaviour; if intentional, refresh
# the recorded hash by deleting scripts/check_transcript.sha256 and
# re-running this script.
NORM_HASH="$(sed -E 's/\([0-9]+ ms\)//g' "$VERIFY_TMP/check.log" | sha256sum | cut -d' ' -f1)"
HASH_FILE="scripts/check_transcript.sha256"
if [ -f "$HASH_FILE" ]; then
    RECORDED="$(cat "$HASH_FILE")"
    if [ "$NORM_HASH" != "$RECORDED" ]; then
        echo "check transcript hash drifted: $NORM_HASH != recorded $RECORDED" >&2
        exit 1
    fi
    echo "    check transcript hash matches the recorded $RECORDED"
else
    echo "$NORM_HASH" > "$HASH_FILE"
    echo "    recorded new check transcript hash $NORM_HASH in $HASH_FILE"
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> disabled-observability zero-allocation gate (counting allocator)"
# Tracing, metrics, and the flight recorder are compiled into every hot
# loop; these integration tests prove the disabled handles cost one
# branch and zero allocations (already part of the workspace run — named
# here so a failure is unmistakable).
cargo test -q -p dt-simengine --test trace_zero_alloc
cargo test -q -p dt-telemetry --test telemetry_zero_alloc

echo "==> cargo test --doc --workspace"
cargo test --doc --workspace -q

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> bench_orchestrator smoke (BENCH_solver.json + pruned-search gates)"
# The bench itself fails (exit != 0) if the branch-and-bound pruned search
# is slower than the exhaustive serial reference at the 96-GPU point, or
# if any pruned run loses its optimality certificate. Every bench smoke
# writes its JSON to $VERIFY_TMP (an absolute path: cargo runs benches from
# the package dir), so a check run leaves the committed BENCH_*.json
# baselines untouched; the gates grep those fresh copies.
SOLVER_JSON="$VERIFY_TMP/BENCH_solver.json"
DT_BENCH_ITERS="${DT_BENCH_ITERS:-3}" DT_BENCH_SOLVER_JSON="$SOLVER_JSON" \
    cargo bench -p dt-bench --bench bench_orchestrator --quiet
test -s "$SOLVER_JSON" || { echo "BENCH_solver.json missing or empty" >&2; exit 1; }
grep -q '"proven_optimal":true' "$SOLVER_JSON" \
    || { echo "no proven_optimal certificate in BENCH_solver.json" >&2; exit 1; }
if grep -q '"proven_optimal":false' "$SOLVER_JSON"; then
    echo "a pruned search lost its optimality certificate (proven_optimal:false)" >&2
    exit 1
fi

echo "==> bench_reorder smoke (BENCH_layers.json: Alg 1/Alg 2 and the production reorder pass)"
# Output to $VERIFY_TMP as for bench_orchestrator. The production cases time
# Algorithm 1 at 1920 samples over DP 128 on all-distinct sizes and on the
# production stream's multimodal sizes, over DP 15 on the production
# stream's and over DP 128 on the skewed stream's, building the production
# task's stream (SyntheticLaion::new, which compiles its draw tables), drawing
# its 1920-sample batch and the skewed stream's (SyntheticLaion::take), cloning
# the production batch, CostRows::new on 1920 samples of
# the production and of the skewed stream, ReorderPlanner::reorder on a
# 1920-sample MLLM-72B batch with the 1296-GPU plan's planner and with the
# deepest trial candidate's, ReorderPlanner::reorder_indices on that
# batch's pre-priced rows under each planner, and
# Runtime::simulate_iteration under each plan and, as the miss path of the
# runtime's repeated-rank check, on the skewed stream under the chosen
# plan; the pipeline_engine cases replay one iteration of each plan on
# the engine; plan_trials times the whole TrainingTask::plan of the
# MLLM-72B production task (the §4 search and the bounded trials).
LAYERS_JSON="$VERIFY_TMP/BENCH_layers.json"
DT_BENCH_ITERS="${DT_BENCH_ITERS:-3}" DT_BENCH_LAYERS_JSON="$LAYERS_JSON" \
    cargo bench -p dt-bench --bench bench_reorder --quiet
test -s "$LAYERS_JSON" || { echo "BENCH_layers.json missing or empty" >&2; exit 1; }
for case in algorithm1_intra/n1920_dp128 algorithm1_intra/production_n1920_dp128 \
    algorithm1_intra/production_n1920_dp15 algorithm1_intra/characterization_n1920_dp128 \
    stream_new/production take/n1920 take/characterization_n1920 batch_clone/n1920 \
    cost_rows/production_n1920 \
    cost_rows/characterization_n1920 reorder_planner/train_plan_ \
    reorder_planner/deepest_candidate_ \
    reorder_indices/train_plan_n1920_dp128_p3 \
    reorder_indices/deepest_candidate_n1920_dp15_p22 runtime_iteration/train_plan_ \
    runtime_iteration/deepest_candidate_ \
    runtime_iteration/characterization_train_plan_n1920_dp128_p3 pipeline_engine/train_plan_ \
    pipeline_engine/deepest_candidate_ plan_trials/production_72b; do
    grep -q "\"name\":\"$case" "$LAYERS_JSON" \
        || { echo "production reorder cases missing from BENCH_layers.json ($case)" >&2; exit 1; }
done

echo "==> repro serve smoke (daemon round-trip: plan, warm hit, replan, simulate, /metrics, drain)"
# Ephemeral port: the daemon prints its bound address on stdout; poll the
# log until it appears, then drive it with the one-shot client. The second
# plan must be a warm-store hit, and the scrape must show it.
SERVE_LOG="$VERIFY_TMP/serve.log"
./target/release/repro serve --addr 127.0.0.1:0 --workers 2 > "$SERVE_LOG" &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^dt-serve listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve daemon died at startup" >&2; cat "$SERVE_LOG" >&2; exit 1; }
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "serve daemon never printed its address" >&2; cat "$SERVE_LOG" >&2; exit 1; }
CLIENT="./target/release/repro client --addr $SERVE_ADDR"
# Capture client output to a file and grep that: piping straight into
# grep -q makes grep exit at the first match, SIGPIPE-ing the client
# mid-print under pipefail.
$CLIENT plan --preset mllm-9b --nodes 12 --batch 128 > "$VERIFY_TMP/serve_client.log"
grep -q 'warm=false' "$VERIFY_TMP/serve_client.log" \
    || { echo "cold plan was not cold" >&2; exit 1; }
$CLIENT plan --preset mllm-9b --nodes 12 --batch 128 > "$VERIFY_TMP/serve_client.log"
grep -q 'warm=true' "$VERIFY_TMP/serve_client.log" \
    || { echo "repeated plan missed the warm store" >&2; exit 1; }
$CLIENT replan --preset mllm-9b --nodes 12 --batch 128 --remaining 64 > "$VERIFY_TMP/serve_client.log"
grep -q '^plan: total_gpus=64' "$VERIFY_TMP/serve_client.log" \
    || { echo "replan did not land on the degraded GPU count" >&2; exit 1; }
$CLIENT simulate --iters 1 > "$VERIFY_TMP/serve_client.log"
grep -q '^simulated 1 iteration' "$VERIFY_TMP/serve_client.log" \
    || { echo "simulate round-trip failed" >&2; exit 1; }
$CLIENT metrics > "$VERIFY_TMP/serve_metrics.prom"
grep -q '^dt_serve_requests_total{kind="plan",outcome="ok"}' "$VERIFY_TMP/serve_metrics.prom" \
    || { echo "dt_serve_requests_total missing from /metrics" >&2; exit 1; }
grep -Eq '^dt_serve_store_hits_total [1-9]' "$VERIFY_TMP/serve_metrics.prom" \
    || { echo "warm-store hit not visible in /metrics" >&2; exit 1; }
grep -q '^dt_build_info{' "$VERIFY_TMP/serve_metrics.prom" \
    || { echo "dt_build_info missing from /metrics" >&2; exit 1; }
grep -q '^dt_uptime_seconds ' "$VERIFY_TMP/serve_metrics.prom" \
    || { echo "dt_uptime_seconds missing from /metrics" >&2; exit 1; }

echo "==> distributed-tracing smoke (assembled cross-process span tree + flight dump)"
# A traced plan must come back as one causally-linked tree: client,
# daemon, and warm-store spans (three distinct process tracks) under a
# single trace id, assembled from the daemon's /trace export merged with
# the client's own sink.
$CLIENT plan --preset mllm-9b --nodes 12 --batch 128 --trace "$VERIFY_TMP/trace.json" \
    > "$VERIFY_TMP/trace_client.log" \
    || { echo "traced plan did not round-trip" >&2; cat "$VERIFY_TMP/trace_client.log" >&2; exit 1; }
grep -q 'warm=true' "$VERIFY_TMP/trace_client.log" \
    || { echo "traced plan missed the warm store" >&2; cat "$VERIFY_TMP/trace_client.log" >&2; exit 1; }
grep -Eq 'assembled trace: [0-9]+ traced spans across 3 process tracks, 1 trace id\(s\)' \
    "$VERIFY_TMP/trace_client.log" \
    || { echo "traced plan did not assemble a 3-process single-trace span tree" >&2;
         cat "$VERIFY_TMP/trace_client.log" >&2; exit 1; }
test -s "$VERIFY_TMP/trace.json" || { echo "assembled Chrome trace missing or empty" >&2; exit 1; }
# A hostile session (garbage length word) must freeze its flight ring and
# surface the black-box dump on GET /flight.
SERVE_HOST="${SERVE_ADDR%:*}"
SERVE_PORT="${SERVE_ADDR##*:}"
exec 3<>"/dev/tcp/$SERVE_HOST/$SERVE_PORT" \
    || { echo "cannot open hostile connection to $SERVE_ADDR" >&2; exit 1; }
printf '\xff\xff\xff\xff' >&3
exec 3<&- 3>&-
FLIGHT_OK=""
for _ in $(seq 1 50); do
    $CLIENT flight > "$VERIFY_TMP/flight.json" || true
    if grep -q '"reason":"malformed"' "$VERIFY_TMP/flight.json"; then FLIGHT_OK=1; break; fi
    sleep 0.1
done
[ -n "$FLIGHT_OK" ] || { echo "malformed session never produced a flight dump" >&2;
                         cat "$VERIFY_TMP/flight.json" >&2; exit 1; }
$CLIENT shutdown > "$VERIFY_TMP/serve_client.log"
grep -q '^bye' "$VERIFY_TMP/serve_client.log" \
    || { echo "graceful shutdown handshake failed" >&2; exit 1; }
wait "$SERVE_PID" || { echo "serve daemon exited non-zero after drain" >&2; exit 1; }
grep -q 'dt-serve drained and stopped' "$SERVE_LOG" \
    || { echo "daemon did not report a clean drain" >&2; cat "$SERVE_LOG" >&2; exit 1; }

echo "==> bench_service smoke (BENCH_service.json + service-level gates)"
# Output to $VERIFY_TMP as for bench_orchestrator; the bench itself enforces
# the service gates (all requests answered, warm hits > 0, /metrics store
# counters, overload probe rejected at least one request with a typed
# Overloaded, tracing tax <= 5%).
SERVICE_JSON="$VERIFY_TMP/BENCH_service.json"
DT_BENCH_SERVICE_JSON="$SERVICE_JSON" cargo bench -p dt-bench --bench bench_service --quiet
test -s "$SERVICE_JSON" || { echo "BENCH_service.json missing or empty" >&2; exit 1; }
grep -q '"overload_probe"' "$SERVICE_JSON" \
    || { echo "overload probe results missing from BENCH_service.json" >&2; exit 1; }
grep -q '"warm_hit_ratio"' "$SERVICE_JSON" \
    || { echo "warm-store results missing from BENCH_service.json" >&2; exit 1; }

echo "==> repro preprocess smoke (2×2 data plane: in-order fan-in, clean shutdown)"
PREPROCESS_LOG="$VERIFY_TMP/preprocess.log"
./target/release/repro preprocess --producers 2 --consumers 2 --batch 4 --batches 4 \
    | tee "$PREPROCESS_LOG"
[ "$(grep -c 'in-order per producer: true' "$PREPROCESS_LOG")" -eq 2 ] \
    || { echo "a consumer lost batches or saw out-of-order delivery" >&2; exit 1; }
grep -q '^clean shutdown: true' "$PREPROCESS_LOG" \
    || { echo "the preprocessing plane did not shut down cleanly" >&2; exit 1; }

echo "==> bench_preprocess smoke (BENCH_PREPROCESS.json + data-plane gates)"
# The bench itself fails (exit != 0) if any consumer loses a batch, any
# producer stream arrives out of order, the 65k-token skew scenario never
# delivers a full-resolution image, or a plane shuts down dirty. Output to
# $VERIFY_TMP as for the other benches.
PREPROCESS_JSON="$VERIFY_TMP/BENCH_PREPROCESS.json"
DT_BENCH_PREPROCESS_BATCHES="${DT_BENCH_PREPROCESS_BATCHES:-3}" \
    DT_BENCH_PREPROCESS_JSON="$PREPROCESS_JSON" \
    cargo bench -p dt-bench --bench bench_preprocess --quiet
test -s "$PREPROCESS_JSON" || { echo "BENCH_PREPROCESS.json missing or empty" >&2; exit 1; }
grep -q '"tokens_per_image":65536' "$PREPROCESS_JSON" \
    || { echo "65k-token skew scenario missing from BENCH_PREPROCESS.json" >&2; exit 1; }
if grep -q '"in_order":false' "$PREPROCESS_JSON"; then
    echo "a producer stream arrived out of order (in_order:false)" >&2
    exit 1
fi
if grep -q '"clean_shutdown":false' "$PREPROCESS_JSON"; then
    echo "a bench plane shut down dirty (clean_shutdown:false)" >&2
    exit 1
fi

echo "==> repro --metrics smoke (Prometheus exposition + JSON archive)"
./target/release/repro zoo --metrics "$VERIFY_TMP/metrics.prom" > /dev/null
test -s "$VERIFY_TMP/metrics.prom" || { echo "metrics.prom missing or empty" >&2; exit 1; }
grep -q '^# TYPE dt_runtime_iter_time_seconds summary$' "$VERIFY_TMP/metrics.prom" \
    || { echo "runtime family missing from Prometheus exposition" >&2; exit 1; }
grep -q '^dt_preprocess_batches_total ' "$VERIFY_TMP/metrics.prom" \
    || { echo "preprocess family missing from Prometheus exposition" >&2; exit 1; }
test -s "$VERIFY_TMP/metrics.prom.json" || { echo "metrics JSON archive missing or empty" >&2; exit 1; }

echo "==> repro elastic smoke (blast-radius sweep: healer acts, goodput identity exact)"
# The sweep's correlated cells run with the healer on and off at each
# blast radius; the healer must actually fire (a nonzero
# dt_healer_actions_total lands in the report notes) and every cell's
# goodput identity must hold exactly (the experiment validates it and
# says so in the notes). The table itself re-asserts the pairing gates
# in dt-bench's own tests; here we gate the shipped binary end to end.
ELASTIC_LOG="$VERIFY_TMP/elastic.log"
./target/release/repro elastic | tee "$ELASTIC_LOG"
grep -Eq 'dt_healer_actions_total = [1-9]' "$ELASTIC_LOG" \
    || { echo "healer never acted in the blast-radius sweep" >&2; exit 1; }
grep -q 'goodput identity validated' "$ELASTIC_LOG" \
    || { echo "goodput identity validation note missing from the sweep" >&2; exit 1; }

echo "==> all checks passed"
