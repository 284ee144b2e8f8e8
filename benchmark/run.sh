#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build (binary and Go build cache, so nothing is written outside the
# checkout) and runs it with the arguments given, from the repository root.
#
#   bash benchmark/run.sh --workload put-durable --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" -dir "$out" "$@"
