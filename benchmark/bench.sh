#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from source into the
# checkout's .bench_build — build cache included, so nothing is written
# outside the checkout — and runs it from the checkout's root with the
# arguments given. The first call in a checkout compiles everything; later
# calls find the binary up to date.
#
#   bash benchmark/bench.sh --workload paper-default --seed 1 --seconds 22 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local \
	go build -C "$root/benchmark" -o "$build/cpm-benchmark" .
cd "$root"
exec "$build/cpm-benchmark" "$@"
