#!/usr/bin/env bash
# bench.sh — the tracked perf trajectory: runs the serving/compute
# microbenchmarks (kernels, influencer ranking, CELF seed selection,
# request-path handlers, router fan-out) with allocation reporting at a fixed
# -benchtime, and emits machine-readable BENCH_serve.json at the repo
# root so subsequent PRs can diff ns/op, allocs/op, and ops/s against
# this one.
#
# After the microbenchmarks, a closed-loop HTTP load stage drives a
# live viralcastd through POST /v1/predict:batch at several batch sizes
# (scripts/smoke -load) and folds the measured req/s and amortized
# ns/cascade into the same report, so the batched data plane's
# end-to-end numbers are tracked alongside the handler-level ones.
#
# Environment knobs:
#   BENCHTIME  go test -benchtime (default 200ms; CI smoke uses 1x)
#   BENCH_OUT  output path (default BENCH_serve.json at the repo root)
#   LOADTIME   per-batch-size duration of the HTTP load stage
#              (default 2s; set 0s to skip the stage entirely)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-200ms}"
out="${BENCH_OUT:-BENCH_serve.json}"
loadtime="${LOADTIME:-2s}"

# The compute-plane packages only: the root-level figure benchmarks
# reproduce whole experiments and belong to cmd/figures, not the
# serving perf trajectory.
pkgs=(
  ./internal/vecmath/
  ./internal/inflmax/
  ./internal/core/
  ./internal/httpkit/
  ./internal/serve/
  ./internal/scenario/
  ./internal/router/
)

raw="$(mktemp)"
loadtmp=""
load_pid=""
cleanup() {
  if [[ -n "$load_pid" ]] && kill -0 "$load_pid" 2>/dev/null; then
    kill -9 "$load_pid" 2>/dev/null || true
  fi
  rm -f "$raw"
  [[ -n "$loadtmp" ]] && rm -rf "$loadtmp"
}
trap cleanup EXIT

echo "== go test -bench (benchtime=$benchtime)"
go test -run='^$' -bench=. -benchmem -benchtime="$benchtime" -count=1 "${pkgs[@]}" | tee "$raw"

if [[ "$loadtime" != "0s" && "$loadtime" != "0" ]]; then
  echo "== closed-loop HTTP load (predict:batch, $loadtime per batch size)"
  loadtmp="$(mktemp -d)"
  go build -o "$loadtmp/viralcast" ./cmd/viralcast
  "$loadtmp/viralcast" simulate -n 150 -cascades 300 -window 8 -seed 7 -out "$loadtmp/cascades.txt"
  "$loadtmp/viralcast" infer -in "$loadtmp/cascades.txt" -topics 2 -iters 6 -seed 7 -out "$loadtmp/model.txt"
  "$loadtmp/viralcast" serve -addr 127.0.0.1:0 -addr-file "$loadtmp/addr" \
    -model "$loadtmp/model.txt" -cascades "$loadtmp/cascades.txt" -seed 7 \
    -flush-every 0 2>"$loadtmp/daemon.log" &
  load_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$loadtmp/addr" ]] && break
    if ! kill -0 "$load_pid" 2>/dev/null; then
      echo "load daemon died during startup:" >&2
      cat "$loadtmp/daemon.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  [[ -s "$loadtmp/addr" ]] || { echo "load daemon never published its address" >&2; exit 1; }
  go run ./scripts/smoke -base "http://$(cat "$loadtmp/addr")" -load -load-time "$loadtime" | tee -a "$raw"
  kill -TERM "$load_pid"
  wait "$load_pid" || { echo "load daemon did not drain cleanly:" >&2; cat "$loadtmp/daemon.log" >&2; exit 1; }
  load_pid=""
fi

go run ./scripts/benchjson -benchtime "$benchtime" <"$raw" >"$out"
go run ./scripts/benchjson -validate "$out"
echo "bench.sh: wrote $out"
