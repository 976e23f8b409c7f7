#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every byte this writes (Go build cache, binary, results, WAL
# segments) stays inside the checkout: .bench_build/ and bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod
go build -C "$root/bench" -o "$build/viralbench" .
cd "$root/bench"
exec "$build/viralbench" "$@"
