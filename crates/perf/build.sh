#!/usr/bin/env bash
# Builds the `legw-perf` binary and prints its path on the last line of
# stdout.
#
#   crates/perf/build.sh          # the benchmark binary
#   crates/perf/build.sh --test   # also builds tests/smoke.rs, prints its path
#
# Two ways to build, tried in this order:
#
#   cargo       `cargo build --release --offline -p legw-perf`. Works when the
#               workspace's external crates are already in the local registry
#               cache or vendored; never touches the network.
#   rustc-stub  plain rustc over the workspace sources, against the minimal
#               stand-in rlibs for the external crates that are checked in at
#               .claude/skills/verify/stubs/ (see the SKILL.md beside them).
#               This is what runs in the offline container.
#
# The stub `rand` draws different initial weights than the published crate,
# so numbers from the two builds must never be compared; every result file
# carries `build: cargo|rustc-stub` in its fingerprint for that reason.
#
# Output goes under ${CARGO_TARGET_DIR:-target}, relative to the repo root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"

want_test=0
[[ "${1:-}" == "--test" ]] && want_test=1

target=${CARGO_TARGET_DIR:-target}
[[ "$target" = /* ]] || target="$root/$target"

if [[ ! -f crates/core/src/lib.rs || ! -f Cargo.toml ]]; then
  echo "legw-perf: the workspace sources are not here (need Cargo.toml and crates/*)" >&2
  exit 2
fi

mkdir -p "$target"
if cargo build --release --offline -p legw-perf >"$target/cargo-offline.log" 2>&1; then
  if [[ $want_test == 1 ]]; then
    cargo test --release --offline -p legw-perf --no-run
  fi
  echo "$target/release/legw-perf"
  exit 0
fi

stubs=.claude/skills/verify/stubs
if [[ ! -d $stubs ]]; then
  echo "legw-perf: cargo cannot resolve the external crates offline (see" >&2
  echo "  $target/cargo-offline.log) and the stub sources in $stubs are missing" >&2
  exit 2
fi

out="$target/perf-stub"
mkdir -p "$out"
bin="$out/legw-perf"
smoke="$out/smoke"

# Rebuild only when a source is newer than the binary.
fresh() {
  [[ -x "$1" ]] && [[ -z "$(find crates/*/src crates/perf/tests "$stubs" "$here/build.sh" -newer "$1" -print -quit)" ]]
}
if fresh "$bin" && { [[ $want_test == 0 ]] || fresh "$smoke"; }; then
  [[ $want_test == 1 ]] && echo "$smoke"
  echo "$bin"
  exit 0
fi

# Mirrors [profile.release] where plain rustc can: opt-level 3, 4 codegen
# units. .cargo/config.toml sets no target-cpu (the SIMD kernels dispatch at
# run time), so neither does this.
rc=(rustc --edition 2021 -C opt-level=3 -C codegen-units=4 -L "$out" --cap-lints allow)

stub() { "${rc[@]}" --crate-type rlib --crate-name "$1" "$stubs/$1.rs" -o "$out/lib$1.rlib"; }
# lib <crate_name> <src> <extern crate names...>
lib() {
  local name=$1 src=$2; shift 2
  local ext=()
  for d in "$@"; do ext+=(--extern "$d=$out/lib$d.rlib"); done
  "${rc[@]}" --crate-type rlib --crate-name "$name" "$src" "${ext[@]}" -o "$out/lib$name.rlib"
}

stub parking_lot
stub crossbeam
stub rand
stub bytes
rustc --edition 2021 --crate-type proc-macro --crate-name serde_derive "$stubs/serde_derive.rs" -o "$out/libserde_derive.so"
"${rc[@]}" --crate-type rlib --crate-name serde "$stubs/serde.rs" --extern "serde_derive=$out/libserde_derive.so" -o "$out/libserde.rlib"

lib legw_parallel crates/parallel/src/lib.rs crossbeam parking_lot
lib legw_tensor crates/tensor/src/lib.rs legw_parallel rand
lib legw_autograd crates/autograd/src/lib.rs legw_parallel legw_tensor rand
lib legw_nn crates/nn/src/lib.rs legw_tensor legw_autograd bytes rand
lib legw_optim crates/optim/src/lib.rs legw_tensor legw_nn
lib legw_schedules crates/schedules/src/lib.rs serde
lib legw_data crates/data/src/lib.rs legw_tensor rand bytes
lib legw_models crates/models/src/lib.rs legw_tensor legw_autograd legw_nn legw_data rand
lib legw crates/core/src/lib.rs legw_parallel legw_tensor legw_autograd legw_nn legw_optim \
  legw_schedules legw_data legw_models rand serde
lib legw_serve crates/serve/src/lib.rs legw_tensor legw_autograd legw_nn legw_data legw_models legw bytes rand

perf_deps=(legw_parallel legw_tensor legw_autograd legw_nn legw_optim legw_schedules legw_data
  legw_models legw legw_serve rand)
rc+=(--cfg legw_stub_build)
lib legw_perf crates/perf/src/lib.rs "${perf_deps[@]}"
"${rc[@]}" --crate-name legw_perf_bin crates/perf/src/main.rs --extern "legw_perf=$out/liblegw_perf.rlib" -o "$bin"

if [[ $want_test == 1 ]]; then
  env "CARGO_BIN_EXE_legw-perf=$bin" "CARGO_MANIFEST_DIR=$here" "CARGO_TARGET_TMPDIR=$out/tmp" \
    "${rc[@]}" --test --crate-name smoke crates/perf/tests/smoke.rs \
    --extern "legw_perf=$out/liblegw_perf.rlib" -o "$smoke"
  echo "$smoke"
fi
echo "$bin"
