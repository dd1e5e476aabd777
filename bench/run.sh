#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# The Go build cache is kept there too, so nothing outside the checkout
# is written.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/haft-bench" .
exec "$build/haft-bench" "$@"
