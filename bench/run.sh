#!/usr/bin/env bash
# The driver's entry point: builds the benchmark from source inside the
# checkout and runs it. Everything the build and the run leave behind
# (Go build cache, binary, scratch directories) stays under .bench_build
# in the working directory, so nothing outside the checkout is written.
#
#   bash bench/run.sh --workload scan_sim --seed 1 --seconds 15 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto

go build -o "$build/bench" ./bench
exec "$build/bench" -tmp "$build" "$@"
