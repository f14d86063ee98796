#!/usr/bin/env bash
# Builds schedperf from source and runs it with the given arguments, e.g.
#   bash bench/run.sh --workload cell_rrm_quick --seed 3 --seconds 25 --trace 0
# Run it from the root of the repository. The build cache, the binary and
# every temporary file live under .bench_build in that root, so the
# benchmark reads and writes nothing outside the tree but the toolchain.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/schedperf" ./schedperf)
exec "$build/schedperf" "$@"
