#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it
# writes (build cache, binary, data directories) under .bench_build in the
# current directory, the root of a checkout. This is the BENCHMARK.json
# command; a reader can as well type `go run ./benchmark`.
set -euo pipefail
b="$PWD/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOTOOLCHAIN=local
go build -o "$b/insightnotes-benchmark" ./benchmark
exec "$b/insightnotes-benchmark" -dir "$b/tmp" "$@"
