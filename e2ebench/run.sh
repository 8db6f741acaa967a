#!/bin/sh
# Build the an5d server and the benchmark from source, then run the
# benchmark pinned to CPU 0, so that the client, the server, its worker
# processes and the calibration kernel share one CPU and one clock
# speed. Arguments go to e2e.exe:
#
#   sh e2ebench/run.sh --workload cold_verified --seed 1 --seconds 15 --trace 0
#
# Build output goes to standard error; the last line of standard
# output is the JSON result.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/an5d.ml ] || [ ! -d lib/serve ]; then
  echo "e2ebench: not the root of an an5d source tree: $(pwd)" >&2
  exit 2
fi
dune build ./bin/an5d.exe ./e2ebench/e2e.exe 1>&2
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c 0 ./_build/default/e2ebench/e2e.exe "$@"
fi
exec ./_build/default/e2ebench/e2e.exe "$@"
