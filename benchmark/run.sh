#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build reads and writes stays inside the checkout: the Go
# build and module caches and the binary live in .bench_build/ at the
# checkout's root, results and traces in benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOENV=off GOFLAGS= GOTOOLCHAIN=local
start=$(date +%s.%N)
go build -o "$build/msbench" .
export MSBENCH_BUILD_S=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
exec "$build/msbench" "$@"
