#!/usr/bin/env bash
# The one command of the benchmark.
#
#   crates/perf/run.sh [--seed N] [--seconds S]
#       builds, then runs every workload (one process each, traced), prints
#       every metric by name with its unit, checks the outputs, writes
#       crates/perf/out/{result,trace}.<workload>.json and prints the
#       measured LEGW speedup. Exits non-zero if any check fails.
#
#   crates/perf/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       the form BENCHMARK.json's `command` is run in: one workload, with the
#       result object as the last line of stdout (end-to-end metrics with
#       --trace 0, per-layer metrics with --trace 1).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
cd "$here/../.."

# build.sh prints the binary's path on stdout and everything else on stderr.
bin=$("$here/build.sh" | tail -n 1)
export LEGW_PERF_COMMIT
LEGW_PERF_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

case " $* " in
  *" --workload "*) exec "$bin" run "$@" ;;
  *) exec "$bin" all "$@" ;;
esac
