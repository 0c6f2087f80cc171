#!/bin/sh
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#	sh benchmark/run.sh --workload fifa-quorum --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (build cache, temporary files, the binary, the
# toolchain's own configuration) goes under .bench_build in the checkout, and
# the benchmark writes its results under .bench_out, so a run touches nothing
# outside the directory it starts in.
set -eu

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a checkout (no go.mod or benchmark/ here)" >&2
	exit 1
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
