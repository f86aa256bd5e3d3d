#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, Go's own state) stays
# in .bench_build/ at the root of the checkout; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
