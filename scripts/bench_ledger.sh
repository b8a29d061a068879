#!/usr/bin/env bash
# Run the benchmark declared in BENCHMARK.json for one workload and seed,
# then append one JSON line to BENCH_ledger.jsonl at the repository root:
# the measured commit, a host fingerprint, the workload, the seed, the run
# length, the report digest and perfbench's final JSON line. The ledger is
# append-only.
#
#   scripts/bench_ledger.sh WORKLOAD SEED [CHECKOUT]
#
# CHECKOUT (default: this repository) is the git checkout whose perfbench
# is built and run, so a parent commit can be measured from a clone of it
# and recorded in the same ledger. Requires jq.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 WORKLOAD SEED [CHECKOUT]" >&2
  exit 2
fi
workload=$1
seed=$2
root=$(cd "$(dirname "$0")/.." && pwd)
checkout=$(cd "${3:-$root}" && pwd)

mapfile -t cmd < <(jq -r '.command[]' "$root/BENCHMARK.json")
seconds=$(jq -r '.run_seconds' "$root/BENCHMARK.json")
commit=$(git -C "$checkout" rev-parse HEAD)
# A dirty checkout is not the commit it names; say so in the line. The
# ledger itself is this script's output, not a change to the program.
dirty=false
if [ -n "$(git -C "$checkout" status --porcelain --untracked-files=no \
  -- . ':!BENCH_ledger.jsonl')" ]; then
  dirty=true
fi
cpu=$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')

output=$(cd "$checkout" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0)
result=$(printf '%s\n' "$output" | tail -n 1)
digest=$(printf '%s\n' "$output" | sed -n 's/^# report digest //p')

jq -cn \
  --arg commit "$commit" --argjson dirty "$dirty" \
  --arg cpu "$cpu" --argjson cores "$(nproc)" --arg kernel "$(uname -r)" \
  --arg workload "$workload" --argjson seed "$seed" --argjson seconds "$seconds" \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg digest "$digest" \
  --argjson result "$result" \
  '{commit: $commit, dirty: $dirty,
    host: {cpu: $cpu, cores: $cores, kernel: $kernel},
    workload: $workload, seed: $seed, seconds: $seconds, date: $date,
    digest: $digest, result: $result}' >> "$root/BENCH_ledger.jsonl"
printf '%s\n' "$result"
