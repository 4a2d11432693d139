#!/bin/sh
# Build the benchmark from source, then run it; the arguments go to the
# benchmark (see perfbench/main.ml).  Dune's shared cache is off so the
# build reads and writes only inside this checkout, and build output
# goes to stderr so the last line of stdout stays the JSON result.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
