#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash benchmark/run.sh --workload market --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, the binary and the
# validators' data all live under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
