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
#   * `small_mine_parked_vs_seed` < MIN_SMALL_MINE — a whole served mine on
#     the small-requests shape (4,000 letters, α 0.001, levels 1–2) over an
#     already built index must stay this many times faster than the seed counter
#     over the same candidates. Counting is a few index reads there, so the
#     ratio guards the level loop around them: candidate generation, compile
#     and elimination.
#
# Serve guard — fails when a serving headline leaves its bound:
#
#   * `incremental_vs_rescan_ratio` < MIN_INCREMENTAL — the streaming
#     scenario: counting an append by resuming the scan state kept at the
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
# is fully deterministic (simulated time, no host clock), so its floor is
# tight:
#
#   * `fused_pipeline_vs_per_level` < MIN_GPU_FUSED — the persistent device
#     pipeline (one stream upload, one kernel launch, then resident advances)
#     must beat the paper's launch-per-level discipline by >= 1.2x on the
#     serving workload; regression means advances stopped amortizing the
#     driver launch or the upload stopped being resident.
#
# The JSONs are hand-rolled reports from `reproduce` (the workspace builds
# offline without a JSON crate), so the parse here is a plain key grep —
# every guarded key is emitted top-level, one per line.
set -euo pipefail

BENCH="${1:-BENCH_counting.json}"
SERVE="${2:-}"
GPU="${3:-}"
# Every bound below is fixed here, not read from the environment: only a
# reviewed edit moves one.
# Committed baseline 0.869 (results/BENCH_counting.json, one core under
# `taskset -c 0` on a 2-vCPU host, the median of three regenerations that
# read 0.831, 0.869 and 0.905; earlier ones read 0.680-1.285 — on one core
# the sharded row is the plain sequential scan, so the ratio is the
# compiled scan's level-2 speed against the seed scan's, and the two move
# apart with the host's state; the new strategies, not sharding, are what
# beat the seed). The seed and sharded rows are sampled alternately, so a
# swing in host speed lands on both sides. The floor sat under every
# earlier reading with a timing-noise allowance; one earlier regeneration,
# which timed the seed row at 52.8 ms against 80-89 ms in its two
# siblings, read 0.680 and fell under it, so on one core the floor sits
# inside this host's noise. Multi-core CI runners clear it with real
# speedup.
MIN_SHARDED=0.70
MIN_BEST=1.0
# Committed baseline 40.90 (results/BENCH_counting.json, one core under
# `taskset -c 0` on a 2-vCPU host; the three regenerations read 40.90,
# 39.32 and 34.47, each planning a fresh session per call over a warm
# shared index, as a served cache hit does). On that host 28 earlier
# readings of the level loop, on one reused session, ran 28.8-55.3,
# median 36.2; 16 readings of the level loop before it, with the same bench
# code, ran 11.1-19.5. The lowest reading sat 20% under the median, and the
# floor leaves the same 20% again under the lowest (28.8 x 0.8 = 23); the
# earlier loop's highest reading is 15% under the floor. No reading comes
# from a CI runner.
MIN_SMALL_MINE=23.0
MIN_INCREMENTAL=2.0
# Socket-path guards: scaling floor well under the committed artifact (16
# clients on one core can only tie, not win), overhead ceiling well over it
# (the wire should cost a small multiple, never orders of magnitude).
MIN_SOCKET_SCALING=0.3
MAX_SOCKET_OVERHEAD=40.0
# The GPU floor is deterministic (simulated time): no noise allowance needed.
MIN_GPU_FUSED=1.2

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
guard small_mine_parked_vs_seed "$(extract small_mine_parked_vs_seed "$BENCH")" "$MIN_SMALL_MINE"

if [ -n "$SERVE" ]; then
    [ -f "$SERVE" ] || { echo "bench_guard: $SERVE not found" >&2; exit 1; }
    guard incremental_vs_rescan_ratio "$(extract incremental_vs_rescan_ratio "$SERVE")" "$MIN_INCREMENTAL"
    guard socket_qps_16_clients_vs_1 "$(extract socket_qps_16_clients_vs_1 "$SERVE")" "$MIN_SOCKET_SCALING"
    guard_max socket_vs_inprocess_overhead "$(extract socket_vs_inprocess_overhead "$SERVE")" "$MAX_SOCKET_OVERHEAD"
fi

if [ -n "$GPU" ]; then
    [ -f "$GPU" ] || { echo "bench_guard: $GPU not found" >&2; exit 1; }
    guard fused_pipeline_vs_per_level "$(extract fused_pipeline_vs_per_level "$GPU")" "$MIN_GPU_FUSED"
fi

exit "$fail"
