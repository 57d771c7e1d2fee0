#!/usr/bin/env bash
# Builds lds-benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/go-cache" go build -o "$build/lds-benchmark" ./benchmark
exec "$build/lds-benchmark" "$@"
