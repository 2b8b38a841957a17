#!/usr/bin/env bash
# The tier-1 test suite without cargo, for containers where the registry is
# unreachable and `cargo test` cannot resolve the external crates.
#
#   scripts/offline_check.sh            # every suite
#   scripts/offline_check.sh autograd   # only suites whose name contains "autograd"
#
# Reuses the stand-in rlibs `crates/perf/build.sh` builds under
# ${CARGO_TARGET_DIR:-target}/perf-stub (external crates from
# .claude/skills/verify/stubs plus every workspace library), adds the proptest
# stub and the three libraries the benchmark does not need (cluster-sim, the
# root meta-crate, bench), then compiles with `rustc --test` and runs:
#
#   * each crate's unit tests             (suite `<crate>`)
#   * each crates/*/tests/*.rs            (suite `<crate>/<file>`)
#   * each root tests/*.rs                (suite `legw_repro/<file>`)
#
# and builds the targets no test links:
#
#   * each crates/*/src/bin/*.rs          (`<crate>/bin/<file>`)
#   * each examples/*.rs                  (`legw_repro/examples/<file>`)
#
# Of those it also runs the two examples that finish in seconds: quickstart,
# and serve_mnist, which exits non-zero unless train -> freeze -> restore ->
# serve ends in a model that answers its held-out rows.
#
# Last, the forced-tier legs scripts/check.sh has: the already-built binaries
# of the suites whose GEMMs lay panels out per kernel tier run again under
# LEGW_KERNEL=scalar (and =avx2 where the CPU has it), since everything above
# only ever sees the detected tier. Nothing is recompiled.
#
# One line per suite, target or leg; logs under perf-stub/tests/. Like cargo,
# every suite runs from its package directory. Not covered: doctests.
# The stub `rand` draws different numbers than the published crate, so a
# seed-sensitive assertion can differ from a cargo run.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
filter=${1:-}

target=${CARGO_TARGET_DIR:-target}
[[ "$target" = /* ]] || target="$root/$target"
out="$target/perf-stub"
stubs=.claude/skills/verify/stubs

# build.sh prints the benchmark binary's path last; under $out means it took
# the rustc-stub route and the rlibs are there.
perf_bin=$(crates/perf/build.sh | tail -n 1)
if [[ "$perf_bin" != "$out/legw-perf" ]]; then
  echo "offline_check: cargo resolves the external crates here; run 'cargo test -q' instead" >&2
  exit 2
fi

# Same flags as build.sh, which mirror [profile.release]; the perf crate reads
# the cfg and the others ignore it.
rc=(rustc --edition 2021 -C opt-level=3 -C codegen-units=4 -L "$out" --cap-lints allow
  --cfg legw_stub_build)
# lib <crate_name> <src> <extern crate names...>
lib() {
  local name=$1 src=$2; shift 2
  local ext=()
  for d in "$@"; do ext+=(--extern "$d=$out/lib$d.rlib"); done
  "${rc[@]}" --crate-type rlib --crate-name "$name" "$src" "${ext[@]}" -o "$out/lib$name.rlib"
}

workspace=(legw_parallel legw_tensor legw_autograd legw_nn legw_optim legw_schedules legw_data
  legw_models legw legw_serve)
"${rc[@]}" --crate-type rlib --crate-name proptest "$stubs/proptest.rs" -o "$out/libproptest.rlib"
lib legw_cluster_sim crates/cluster-sim/src/lib.rs
lib legw_repro src/lib.rs "${workspace[@]}" legw_cluster_sim
lib legw_bench crates/bench/src/lib.rs "${workspace[@]}" legw_cluster_sim rand

# The externs a suite may name. build.sh still builds parking_lot and crossbeam
# stand-ins, but no crate depends on either: leaving them out makes a stray
# `use crossbeam` fail here as it would under cargo.
all=("${workspace[@]}" legw_cluster_sim legw_repro legw_bench legw_perf
  rand bytes proptest)
logs="$out/tests"
mkdir -p "$logs"
failed=0

# fail <name> <log>: report a failed suite or target.
fail() {
  echo "FAIL  $1  (see $2)"
  grep -E '^test .* FAILED|panicked at|^error' "$2" | head -n 20 | sed 's/^/        /' || true
  failed=1
}

# suite <name> <package dir> <crate_name> <src>: compile <src> as a test
# harness against every library but itself (with the variables cargo would
# set for it), run it from its package directory, print one line.
suite() {
  local name=$1 dir=$2 crate=$3 src=$4
  [[ "$name" == *"$filter"* ]] || return 0
  local bin="$logs/${name//\//__}" ext=()
  local log="$bin.log"
  for d in "${all[@]}"; do [[ $d == "$crate" ]] || ext+=(--extern "$d=$out/lib$d.rlib"); done
  rm -f "$bin"
  if env "CARGO_MANIFEST_DIR=$root/$dir" "CARGO_BIN_EXE_legw-perf=$perf_bin" \
    "CARGO_TARGET_TMPDIR=$out/tmp" "${rc[@]}" --test --crate-name "$crate" "$src" \
    "${ext[@]}" -o "$bin" >"$log" 2>&1 && (cd "$dir" && "$bin") >>"$log" 2>&1; then
    echo "ok    $name  $(sed -n 's/^test result: ok. \(.*\); 0 measured.*/\1/p' "$log")"
  else
    fail "$name" "$log"
  fi
}

# build <name> <crate_name> <src> [run]: compile <src> as a binary against
# every library, run it from the repo root if asked to, print one line.
build() {
  local name=$1 crate=$2 src=$3 run=${4:-}
  [[ "$name" == *"$filter"* ]] || return 0
  local bin="$logs/${name//\//__}" ext=()
  local log="$bin.log"
  for d in "${all[@]}"; do ext+=(--extern "$d=$out/lib$d.rlib"); done
  if ! "${rc[@]}" --crate-name "$crate" "$src" "${ext[@]}" -o "$bin" >"$log" 2>&1; then
    fail "$name" "$log"
  elif [[ -z $run ]]; then
    echo "ok    $name  built"
  elif "$bin" >>"$log" 2>&1; then
    echo "ok    $name  ran"
  else
    fail "$name" "$log"
  fi
}

for manifest in crates/*/Cargo.toml; do
  dir=${manifest%/Cargo.toml}
  crate=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1 | tr - _)
  suite "$crate" "$dir" "$crate" "$dir/src/lib.rs"
  for t in "$dir"/tests/*.rs; do
    [[ -e $t ]] || continue
    stem=$(basename "$t" .rs)
    suite "$crate/$stem" "$dir" "$stem" "$t"
  done
  for b in "$dir"/src/bin/*.rs; do
    [[ -e $b ]] || continue
    stem=$(basename "$b" .rs)
    build "$crate/bin/$stem" "$stem" "$b"
  done
done
for t in tests/*.rs; do
  stem=$(basename "$t" .rs)
  suite "legw_repro/$stem" . "$stem" "$t"
done
for e in examples/*.rs; do
  stem=$(basename "$e" .rs)
  case $stem in
    quickstart | serve_mnist) build "legw_repro/examples/$stem" "$stem" "$e" run ;;
    *) build "legw_repro/examples/$stem" "$stem" "$e" ;;
  esac
done

# rerun <tier> <suite name> <package dir>: run a suite's binary, built above,
# with the kernel selector pinned to <tier>.
rerun() {
  local tier=$1 name=$2 dir=$3
  [[ "$name" == *"$filter"* ]] || return 0
  local bin="$logs/${name//\//__}"
  local log="$bin.$tier.log"
  if (cd "$dir" && LEGW_KERNEL=$tier "$bin") >"$log" 2>&1; then
    echo "ok    $name [LEGW_KERNEL=$tier]  $(sed -n 's/^test result: ok. \(.*\); 0 measured.*/\1/p' "$log")"
  else
    fail "$name [LEGW_KERNEL=$tier]" "$log"
  fi
}

# Packed-panel layouts differ per tier (micro-panels 8 or 16 columns wide), so
# the suites that multiply through them also run on the tiers detection did
# not pick: the tensor crate, its cross-tier dispatch matrix, plan replay
# against the tape, and the two serving suites (frozen forward, bf16 panels).
tiers=(scalar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo; then tiers+=(avx2); fi
for tier in "${tiers[@]}"; do
  rerun "$tier" legw_tensor crates/tensor
  rerun "$tier" legw_tensor/kernel_dispatch crates/tensor
  rerun "$tier" legw/plan_replay_equivalence crates/core
  rerun "$tier" legw_serve/freeze_equivalence crates/serve
  rerun "$tier" legw_serve/bf16_serving crates/serve
done

if [[ $failed == 0 ]]; then
  echo "offline_check: all suites passed, all targets built"
else
  echo "offline_check: FAILURES above"
  exit 1
fi
