#!/usr/bin/env bash
# Tier-1: the one gate, run before every merge. The workspace has no external
# crates, so everything here runs offline against the committed Cargo.lock.
#
#   scripts/check.sh            # everything below
#   scripts/check.sh fast       # skip clippy and rustdoc
#
# Nothing here measures time: the one timing rig is `bash crates/perf/run.sh`
# (contract in BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."
flags=(--offline --locked)

# Zero external crates stays true: every package and dependency is a path one.
meta=$(cargo metadata "${flags[@]}" --format-version 1)
if grep -q '^source = ' Cargo.lock || grep -q '"source":"' <<<"$meta"; then
  echo "check.sh: a dependency that is not a path dependency (see Cargo.lock)" >&2
  exit 1
fi
# One copy of the generator: crates/perf/build.sh's rustc fallback names the
# stub path, which must be the workspace crate itself.
if [[ "$(readlink -f .claude/skills/verify/stubs/rand.rs)" != "$PWD/crates/rand/src/lib.rs" ]]; then
  echo "check.sh: .claude/skills/verify/stubs/rand.rs must link to crates/rand/src/lib.rs" >&2
  exit 1
fi

echo "== cargo build --release: every library, binary and example"
cargo build --release "${flags[@]}" --workspace --bins --examples

# The two examples that finish in seconds. serve_mnist exits non-zero unless
# train -> freeze -> restore -> serve ends in an engine that answers its
# held-out rows.
for example in quickstart serve_mnist; do
  echo "== cargo run --release --example $example"
  cargo run -q --release "${flags[@]}" --example "$example"
done

echo "== cargo test --workspace: unit, integration and doc tests"
cargo test -q "${flags[@]}" --workspace

# Inference serving: the run above has sibling tests sharing the cores; this
# leg re-runs the suite serially, so the batcher's deadline and coalescing
# assertions hold on their own.
echo "== cargo test -p legw-serve, serially"
cargo test -q "${flags[@]}" -p legw-serve -- --test-threads=1

# Kernel dispatch: the build is portable (no -C target-cpu, see
# .cargo/config.toml) and picks its SIMD tier at run time, so everything above
# saw only the detected tier. Packed-panel layouts differ per tier
# (micro-panels 8 or 16 columns wide), so the suites that multiply through
# them run again on the tiers detection did not pick: the tensor crate with
# its cross-tier dispatch matrix, plan replay against the tape, and the two
# serving suites (frozen forward, bf16 panels).
tiers=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo; then tiers+=(avx2); fi
for tier in "${tiers[@]}"; do
  echo "== LEGW_KERNEL=$tier: legw-tensor, plan_replay_equivalence, freeze_equivalence, bf16_serving"
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-tensor
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw --test plan_replay_equivalence
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-serve --test freeze_equivalence
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-serve --test bf16_serving -- --test-threads=1
done

if [[ "${1:-}" != "fast" ]]; then
  echo "== cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy "${flags[@]}" --workspace --all-targets -- -D warnings

  # Doc links rot silently otherwise. legw-perf is left out until a benchmark
  # PR fixes its one warning (`slowdown_at` links to the private `NEIGHBOURS`).
  echo "== cargo doc --workspace --exclude legw-perf, warnings denied"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${flags[@]}" --workspace --exclude legw-perf
fi

echo "check.sh: all gates passed"
