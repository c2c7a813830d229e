#!/usr/bin/env bash
# Builds the benchmark from the checkout this is started in (the repository
# root) and runs it with the given arguments. Everything the build writes,
# the Go build cache included, stays under .bench_build in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
