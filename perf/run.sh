#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perf/run.sh -workload route-mix -seed 3
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perf build -o "$build/gcrperf" .
exec "$build/gcrperf" "$@"
