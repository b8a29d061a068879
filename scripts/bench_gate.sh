#!/usr/bin/env bash
# Throughput gate against a parent commit. Runs the BENCHMARK.json workload
# walk-4k, seed 1, as 3 alternating pairs (PARENT_CHECKOUT first, then this
# checkout) through scripts/bench_ledger.sh, which appends all six runs to
# BENCH_ledger.jsonl. Fails if any run is not correct, or if for any
# end-to-end metric the median of this checkout's runs is worse than the
# parent's median by more than that metric's `bound` in BENCHMARK.json.
#
#   scripts/bench_gate.sh PARENT_CHECKOUT
#
# PARENT_CHECKOUT is a git checkout of the commit to compare against (a
# clone or a worktree). Both sides run on the same host in the same job, so
# host speed cancels out of the comparison. Requires jq.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_CHECKOUT" >&2
  exit 2
fi
parent=$1
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)

results=()
for pair in 1 2 3; do
  for side in parent change; do
    checkout=$root
    [ "$side" = parent ] && checkout=$parent
    echo "== pair $pair: $side ($checkout) ==" >&2
    result=$("$here/bench_ledger.sh" walk-4k 1 "$checkout")
    results+=("$(jq -c --arg side "$side" '{side: $side} + .' <<<"$result")")
  done
done

verdict=$(printf '%s\n' "${results[@]}" | jq -rs --slurpfile spec "$root/BENCHMARK.json" '
  def median: sort | if length % 2 == 1 then .[length / 2 | floor]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  . as $runs
  | ($runs[] | select(.correct != true) | "FAIL \(.side) run not correct"),
    ($spec[0].end_to_end[] as $m
     | ([$runs[] | select(.side == "parent") | .metrics[$m.name].value] | median) as $p
     | ([$runs[] | select(.side == "change") | .metrics[$m.name].value] | median) as $c
     | (if $p == null or $c == null then true
        elif $m.better == "lower" then $c > $p * (1 + $m.bound)
        else $c < $p * (1 - $m.bound) end) as $worse
     | "\(if $worse then "FAIL" else "ok  " end) \($m.name): parent median \($p)," +
       " change median \($c), bound \($m.bound)")')
printf '%s\n' "$verdict"
if grep -q '^FAIL' <<<"$verdict"; then
  echo "bench gate: FAIL"
  exit 1
fi
echo "bench gate: OK"
