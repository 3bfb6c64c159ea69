#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository. Build output goes to stderr, so the
# last line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/bin/perfbench.exe 1>&2
exec ./_build/default/perfbench/bin/perfbench.exe "$@"
