#!/usr/bin/env bash
# Quick performance smoke: run the criterion kernel and training-step
# benches in quick mode.
#
# Usage:
#   scripts/bench_smoke.sh                 # kernel + training-step benches
#   scripts/bench_smoke.sh gemm_shapes     # just the GEMM shape sweep
#   scripts/bench_smoke.sh lstm_cell       # fused vs unfused LSTM cell op
#   scripts/bench_smoke.sh lstm_seq        # hoisted vs stepwise sequence path
#   scripts/bench_smoke.sh plan_replay     # compiled-plan replay vs tape rebuild
#   LEGW_THREADS=1 scripts/bench_smoke.sh  # pin the worker pool
#   LEGW_SHARDS=4 scripts/bench_smoke.sh sharded   # executor shard sweep
#
# The benches already use short measurement windows (see the `quick` config
# in crates/bench/benches/kernels.rs); --quick shortens criterion's analysis
# further so the whole sweep finishes in a couple of minutes. Compare GEMM
# results against the tracked numbers in BENCH_gemm.json and training-step
# results (including the *_sharded executor groups and the plan_replay
# tape-rebuild-vs-replay group) against BENCH_train_step.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# Label the run with the SIMD tier the runtime dispatcher picked (honours
# LEGW_KERNEL; see README.md) so numbers from different machines or forced
# tiers are never compared blind.
echo "== dispatched kernel: $(cargo run --quiet --release -p legw-bench --bin gemm_bench -- --print-kernel)"

FILTER="${1:-}"
cargo bench --package legw-bench --bench kernels -- --quick ${FILTER:+"$FILTER"}
cargo bench --package legw-bench --bench training_step -- --quick ${FILTER:+"$FILTER"}

# Always cover the straggler case: streaming vs post-barrier reduction with
# one late shard — overlap_on should beat overlap_off (tracked in
# BENCH_train_step.json as straggler_s8_overlap_{on,off}). A blank filter
# already ran it above.
if [[ -n "$FILTER" && "$FILTER" != *straggler* ]]; then
  cargo bench --package legw-bench --bench training_step -- --quick reduce_straggler
fi
