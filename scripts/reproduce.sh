#!/bin/sh
# Reproduce every result in EXPERIMENTS.md from scratch.
#
# Usage:
#   scripts/reproduce.sh            # default scale (matches EXPERIMENTS.md)
#   scripts/reproduce.sh paper      # the paper's full workload sizes
#   scripts/reproduce.sh small      # fast smoke run
#
# Outputs: results/figures_<scale>.log and results/*.csv.
set -eu

scale="${1:-default}"
outdir="results"
mkdir -p "$outdir"

echo "== build and test =="
go build ./...
go vet ./...
go test ./...

echo "== figures (scale: $scale) =="
go run ./cmd/figures -fig all -scale "$scale" -csv "$outdir" \
    | tee "$outdir/figures_${scale}.log"

echo "== baseline and convergence studies =="
go run ./cmd/figures -fig baselines,convergence -scale "$scale" \
    | tee "$outdir/studies_${scale}.log"

# Timings are not results: they go to the terminal, not to $outdir (the
# perf record is bench/, compared parent-vs-change by the pipeline).
echo "== benchmarks =="
go test -bench=. -benchmem -benchtime=1x .

echo "done: see $outdir/"
