#!/bin/sh
# Build the benchmark and the server from source, then run the benchmark
# from the root of the checkout with the given arguments, e.g.
#   sh perf/run.sh --workload serve --seed 1 --seconds 12 --trace 0
# The dune cache is disabled so the build writes only inside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perf/perf.exe ./bin/rio_serve.exe >&2
exec ./_build/default/perf/perf.exe "$@"
