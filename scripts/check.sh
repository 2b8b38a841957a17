#!/usr/bin/env bash
# Full pre-merge gate: release build, test suite, and lint-clean clippy.
#
# Usage:
#   scripts/check.sh            # build + test + clippy
#   scripts/check.sh fast       # skip clippy (build + test only)
#
# Requires network access (or a primed cargo registry cache) the first
# time, to fetch the workspace's three external crates. In a fully offline
# container, scripts/offline_check.sh runs the same test suites with plain
# rustc against checked-in stand-ins for those crates, and builds the
# binaries and examples.
#
# Nothing here measures time: the one timing rig is `bash crates/perf/run.sh`
# (contract in BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

# Inference serving: frozen-artifact restore must match the live forward
# (bitwise / token-for-token), and the dynamic batcher must coalesce
# concurrent clients without losing per-session state. `cargo test -q`
# above already runs these under the harness's default test parallelism;
# this leg re-runs the suite serially, so the batcher's deadline and
# coalescing assertions hold without sibling tests stealing the core.
echo "== cargo test -q -p legw-serve -- --test-threads=1"
cargo test -q -p legw-serve -- --test-threads=1

# Kernel dispatch: since PR 10 the default build is portable (no
# -C target-cpu=native — see .cargo/config.toml) and picks its SIMD tier
# at runtime, so `cargo test` above already exercises the detected-best
# kernels on a baseline-x86-64 binary. This leg re-runs the tensor suite
# (which includes the cross-variant bitwise dispatch tests), plan replay
# against the tape, and the serving suites (frozen forward, bf16/LRU) with
# the selector forced to the scalar fallback, pinning the no-SIMD path that
# machines without AVX2 would take — and the 8-column packed-panel layout
# an AVX-512 machine never otherwise lays out. scripts/offline_check.sh
# runs the same legs.
echo "== LEGW_KERNEL=scalar cargo test -q -p legw-tensor"
LEGW_KERNEL=scalar cargo test -q -p legw-tensor
echo "== LEGW_KERNEL=scalar cargo test -q -p legw --test plan_replay_equivalence"
LEGW_KERNEL=scalar cargo test -q -p legw --test plan_replay_equivalence
echo "== LEGW_KERNEL=scalar cargo test -q -p legw-serve --test freeze_equivalence"
LEGW_KERNEL=scalar cargo test -q -p legw-serve --test freeze_equivalence
echo "== LEGW_KERNEL=scalar cargo test -q -p legw-serve --test bf16_serving"
LEGW_KERNEL=scalar cargo test -q -p legw-serve --test bf16_serving -- --test-threads=1

if [[ "${1:-}" != "fast" ]]; then
  echo "== cargo clippy --workspace -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
fi

echo "check.sh: all gates passed"
