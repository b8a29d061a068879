#!/bin/bash
# Full paper-scale figure regeneration: every claim's grid at the paper
# scale (CSVs in target-bench/experiments/), then the machine-readable
# headline reports. Output tees to bench_output.txt.
set -u
root=$(cd "$(dirname "$0")" && pwd)
export CARGO_TARGET_DIR="$root/target-bench"
cd "$root"
{
  echo "== graphmem full benchmark run (graphmem claims --scale paper) =="
  date
  cargo build --release --bin graphmem 2>&1
  GRAPHMEM="$CARGO_TARGET_DIR/release/graphmem"
  "$GRAPHMEM" claims --scale paper 2>&1
  echo "== machine-readable headline reports -> bench_reports.jsonl =="
  : > bench_reports.jsonl
  for policy in 4k thp selective:0.2; do
    "$GRAPHMEM" run --dataset kron --kernel bfs --policy "$policy" \
      --preprocess dbg --frag 0.5 --surplus 0.35 --json \
      >> bench_reports.jsonl
  done
  # One sampled run: epoch time series for the pressure-dynamics plots.
  "$GRAPHMEM" run --dataset kron --kernel bfs --policy thp --surplus 0.35 \
    --sample-interval 1000000 --series bench_series.csv --json \
    >> bench_reports.jsonl
  echo "== done =="
  date
} | tee bench_output.txt
