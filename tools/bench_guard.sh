#!/usr/bin/env bash
# Bench regression guard over freshly generated benchmark artifacts.
#
#   tools/bench_guard.sh [BENCH_COUNTING_JSON] [BENCH_SERVE_JSON] [BENCH_GPU_JSON]
#
# Defaults: BENCH_counting.json; the serve and GPU reports are guarded only
# when their arguments are given (CI passes BENCH_serve.json and
# BENCH_gpu.json after generating them).
#
# Counting guard — fails (exit 1) when either headline ratio regresses:
#
#   * `level2_best_vs_seed`   < 1.0  — the new counting strategies (vertical
#     occurrence lists / word-packed Shift-And) must beat the frozen seed
#     scanner at level 2 on a single core: an algorithmic win, not
#     parallelism. 1.0 is an absolute floor, not a moving baseline.
#   * `level2_sharded_vs_seed` < MIN_SHARDED — the sharded-engine ratio must
#     stay at or above the committed 1-core artifact's value (minus a small
#     noise allowance), guarding the single-worker dispatch fix: cutting
#     shards without threads to scan them is how this ratio regresses.
#
# Serve guard — fails when a serving headline leaves its bound:
#
#   * `incremental_vs_rescan_ratio` < MIN_INCREMENTAL — the streaming
#     scenario: counting an append by resuming parked continuations at the
#     stream head must beat recounting the whole grown prefix. The floor is
#     an order of magnitude under the committed artifact: it catches the
#     incremental path silently degrading to a rescan, not timing noise.
#   * `socket_qps_16_clients_vs_1` < MIN_SOCKET_SCALING — the tdm-server
#     socket path: 16 concurrent TCP clients must not collapse below a
#     fraction of 1-client throughput. The floor catches the handler pool
#     serializing connections, not contention noise.
#   * `socket_vs_inprocess_overhead` > MAX_SOCKET_OVERHEAD — a ceiling, not
#     a floor: the wire (framing + JSON + per-request database decode) may
#     cost a multiple of in-process submission, but a blow-up past the cap
#     means something pathological (per-request reconnects, quadratic
#     encoding), not ordinary serialization cost.
#
# GPU guard — the simulated serving-pipeline trajectory (`BENCH_gpu.json`)
# is fully deterministic (simulated time, no host clock), so its floors are
# tight:
#
#   * `fused_pipeline_vs_per_level` < MIN_GPU_FUSED — the persistent device
#     pipeline (one stream upload, one kernel launch, then resident advances)
#     must beat the paper's launch-per-level discipline by >= 1.2x on the
#     serving workload; regression means advances stopped amortizing the
#     driver launch or the upload stopped being resident.
#   * `union_launch_vs_k_solo` < MIN_GPU_UNION — one K-tenant union launch
#     over the deduplicated CSR must beat K solo upload+launch cycles at all;
#     1.0 catches batching silently degrading to concatenation.
#
# The JSONs are hand-rolled reports from `reproduce` (the workspace builds
# offline without a JSON crate), so the parse here is a plain key grep —
# every guarded key is emitted top-level, one per line.
set -euo pipefail

BENCH="${1:-BENCH_counting.json}"
SERVE="${2:-}"
GPU="${3:-}"
# Committed baseline 0.852 (results/BENCH_counting.json, one core under
# `taskset -c 0` on a 2-vCPU host, the median of three regenerations that
# read 0.658, 0.908 and 0.852 — on one core every sharded row is the plain
# sequential scan, so the ratio is host noise around the compiled scan's
# level-2 speed, a bit under the seed scan's; the new strategies, not
# sharding, are what beat it). The floor sits under it with a timing-noise
# allowance. Multi-core CI runners clear it with real speedup.
MIN_SHARDED="${MIN_SHARDED:-0.70}"
MIN_BEST="${MIN_BEST:-1.0}"
MIN_INCREMENTAL="${MIN_INCREMENTAL:-2.0}"
# Socket-path guards: scaling floor well under the committed artifact (16
# clients on one core can only tie, not win), overhead ceiling well over it
# (the wire should cost a small multiple, never orders of magnitude).
MIN_SOCKET_SCALING="${MIN_SOCKET_SCALING:-0.3}"
MAX_SOCKET_OVERHEAD="${MAX_SOCKET_OVERHEAD:-40.0}"
# GPU floors are deterministic (simulated time): no noise allowance needed.
MIN_GPU_FUSED="${MIN_GPU_FUSED:-1.2}"
MIN_GPU_UNION="${MIN_GPU_UNION:-1.0}"

[ -f "$BENCH" ] || { echo "bench_guard: $BENCH not found" >&2; exit 1; }

extract() {
    # "key": 1.2345,  ->  1.2345   (from file $2)
    awk -F': ' -v key="\"$1\"" '$1 ~ key { gsub(/[ ,]/, "", $2); print $2; exit }' "$2"
}

fail=0
guard() {
    # guard KEY VALUE FLOOR
    if [ -z "$2" ]; then
        echo "bench_guard: $1 missing" >&2
        fail=1
    elif awk -v v="$2" -v min="$3" 'BEGIN { exit !(v+0 < min+0) }'; then
        echo "bench_guard: FAIL $1 = $2 < $3" >&2
        fail=1
    else
        echo "bench_guard: ok   $1 = $2 (floor $3)"
    fi
}

guard_max() {
    # guard_max KEY VALUE CEILING
    if [ -z "$2" ]; then
        echo "bench_guard: $1 missing" >&2
        fail=1
    elif awk -v v="$2" -v max="$3" 'BEGIN { exit !(v+0 > max+0) }'; then
        echo "bench_guard: FAIL $1 = $2 > $3" >&2
        fail=1
    else
        echo "bench_guard: ok   $1 = $2 (ceiling $3)"
    fi
}

guard level2_best_vs_seed "$(extract level2_best_vs_seed "$BENCH")" "$MIN_BEST"
guard level2_sharded_vs_seed "$(extract level2_sharded_vs_seed "$BENCH")" "$MIN_SHARDED"

if [ -n "$SERVE" ]; then
    [ -f "$SERVE" ] || { echo "bench_guard: $SERVE not found" >&2; exit 1; }
    guard incremental_vs_rescan_ratio "$(extract incremental_vs_rescan_ratio "$SERVE")" "$MIN_INCREMENTAL"
    guard socket_qps_16_clients_vs_1 "$(extract socket_qps_16_clients_vs_1 "$SERVE")" "$MIN_SOCKET_SCALING"
    guard_max socket_vs_inprocess_overhead "$(extract socket_vs_inprocess_overhead "$SERVE")" "$MAX_SOCKET_OVERHEAD"
fi

if [ -n "$GPU" ]; then
    [ -f "$GPU" ] || { echo "bench_guard: $GPU not found" >&2; exit 1; }
    guard fused_pipeline_vs_per_level "$(extract fused_pipeline_vs_per_level "$GPU")" "$MIN_GPU_FUSED"
    guard union_launch_vs_k_solo "$(extract union_launch_vs_k_solo "$GPU")" "$MIN_GPU_UNION"
fi

exit "$fail"
