#!/usr/bin/env bash
# Builds the benchmark driver into .bench_build/ at the root of the checkout
# and runs it with the given arguments. Everything the Go toolchain writes
# (build cache included) stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/dedisys-benchmark" ./benchmark
exec "$build/dedisys-benchmark" "$@"
