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

# One test stays ignored: the 8x test of tests/legw_scaling.rs, until the
# paired-seed protocol of ROADMAP item 1 retires it. Any other ignored test
# fails here, named by file, line and function.
echo "== no test is ignored but the 8x test of tests/legw_scaling.rs"
ignored=$(git ls-files -z '*.rs' | xargs -0 awk '
  FNR == 1 { pending = "" }
  /#\[(cfg_attr\(.*,[[:space:]]*)?ignore([^A-Za-z0-9_]|$)/ { pending = FILENAME ":" FNR }
  pending != "" && match($0, /fn [A-Za-z0-9_]+/) {
    name = substr($0, RSTART + 3, RLENGTH - 3)
    if (FILENAME != "tests/legw_scaling.rs" || name != "fixed_lr_at_large_batch_underperforms_legw")
      print pending " (" name ")"
    pending = ""
  }')
if [[ -n "$ignored" ]]; then
  echo "check.sh: ignored tests beyond the one tests/legw_scaling.rs keeps:" >&2
  echo "$ignored" >&2
  exit 1
fi

# The eager tape is the oracle and nothing else: outside tests, only
# crates/models, which defines `Infer::infer_tape`, and crates/perf, whose
# benchmark checks every served row against it, call it. Outside tests means
# above a file's first #[cfg(test)], and not under a tests/ directory.
echo "== outside tests, nothing but crates/models and crates/perf calls infer_tape"
taped=$(git ls-files '*.rs' | grep -Ev '^(crates/(models|perf)/|(.*/)?tests/)' | xargs awk '
  FNR == 1 { lib = 1 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { lib = 0 }
  lib && !/^[[:space:]]*\/\// && /infer_tape[[:space:]]*\(/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$taped" ]]; then
  echo "check.sh: library code calls the eager tape outside crates/models and crates/perf:" >&2
  echo "$taped" >&2
  exit 1
fi

echo "== cargo build --release: every library, binary and example"
cargo build --release "${flags[@]}" --workspace --bins --examples

# The three examples that finish in seconds. serve_mnist exits non-zero
# unless train -> freeze -> restore -> serve ends in an engine that answers
# its held-out rows; imagenet_lars is the one that trains through
# train_resnet, and so through the BatchNorm statistics fold, in release.
for example in quickstart serve_mnist imagenet_lars; do
  echo "== cargo run --release --example $example"
  cargo run -q --release "${flags[@]}" --example "$example"
done

# Tests leave the tree as they found it: no test writes into the checkout.
tree_state() { git status --porcelain --untracked-files=all 2>/dev/null || true; }
tree_before=$(tree_state)

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
# its cross-tier dispatch matrix, the autograd crate's plan-vs-tape suites
# (the plan unit tests, random chains, gradient fuzzing, pack traffic), the
# models crate's plan-vs-tape tests (the planned greedy decoder among them,
# and plans captured from NaN batches and weights replaying the tape), the
# core crate's evaluation sweeps and shard equivalence (seq2seq evaluation
# decodes through the plans' weight panels), plan replay against the tape,
# ResNet's trained bits pinned to constants (what plan and tape share,
# neither can check), and the serving suites (frozen forward, bf16 panels,
# and the two pool tests, the steady state and the miss that keeps no arena,
# each alone in its process because it reads the process-wide pool
# counters).
tiers=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo; then tiers+=(avx2); fi
for tier in "${tiers[@]}"; do
  echo "== LEGW_KERNEL=$tier: legw-tensor, legw-autograd, legw-models, legw (lib, shard_equivalence, plan_replay_equivalence, resnet_bits), freeze_equivalence, steady_state_pool, miss_keeps_no_arena, bf16_serving"
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-tensor
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-autograd
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-models
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw --lib
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw --test shard_equivalence
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw --test plan_replay_equivalence
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw --test resnet_bits
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-serve --test freeze_equivalence
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-serve --test steady_state_pool
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-serve --test miss_keeps_no_arena
  LEGW_KERNEL=$tier cargo test -q "${flags[@]}" -p legw-serve --test bf16_serving -- --test-threads=1
done

echo "== the test legs left the tree as they found it"
if [[ "$(tree_state)" != "$tree_before" ]]; then
  echo "check.sh: the tests changed the working tree:" >&2
  diff <(echo "$tree_before") <(tree_state) >&2 || true
  exit 1
fi

if [[ "${1:-}" != "fast" ]]; then
  # Every `unsafe` block and `unsafe impl` carries its own `// SAFETY:` text.
  echo "== cargo clippy --workspace --all-targets -- -D warnings -W clippy::undocumented_unsafe_blocks"
  cargo clippy "${flags[@]}" --workspace --all-targets -- -D warnings -W clippy::undocumented_unsafe_blocks

  # Doc links rot silently otherwise, private ones too: the kernel table and
  # the SIMD kernels are crate-private. legw-perf is left out until a
  # benchmark PR fixes its one warning (`slowdown_at` links to the private
  # `NEIGHBOURS`).
  echo "== cargo doc --workspace --exclude legw-perf --document-private-items, warnings denied"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${flags[@]}" --workspace --exclude legw-perf \
    --document-private-items
fi

echo "check.sh: all gates passed"
