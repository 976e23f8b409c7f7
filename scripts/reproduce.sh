#!/bin/sh
# Reproduce every result in EXPERIMENTS.md from scratch.
#
# Usage:
#   scripts/reproduce.sh            # default scale (matches EXPERIMENTS.md)
#   scripts/reproduce.sh paper      # the paper's full workload sizes
#   scripts/reproduce.sh small      # fast smoke run
#
# Outputs: results/figures_<scale>.log (figures_default_scale.log at the
# default scale) and results/*.csv.
set -eu

scale="${1:-default}"
outdir="results"
mkdir -p "$outdir"

echo "== build and test =="
go build ./...
go vet ./...
go test ./...

# -fig all prints every figure, ablation, baseline, convergence study and
# sweep: one archive per scale (the default scale's is the one
# EXPERIMENTS.md quotes, figures_default_scale.log).
log="$outdir/figures_${scale}.log"
[ "$scale" = default ] && log="$outdir/figures_default_scale.log"
echo "== figures (scale: $scale) =="
go run ./cmd/figures -fig all -scale "$scale" -csv "$outdir" | tee "$log"

# Timings are not results: they go to the terminal, not to $outdir (the
# perf record is bench/, compared parent-vs-change by the pipeline).
echo "== benchmarks =="
go test -bench=. -benchmem -benchtime=1x .

echo "done: see $outdir/"
