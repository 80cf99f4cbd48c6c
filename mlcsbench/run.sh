#!/usr/bin/env bash
# Runs every workload round-robin in sets, each untraced and then traced.
#
#   mlcsbench/run.sh [--sets K] [--seed N] [--smoke] [--out DIR]
#
# Set i (from 0) runs every workload with seed N+i (default N=42), so two
# checkouts run with the same --seed and --sets see the same inputs. Each
# run is one mlcsbench/run.py call, which builds the harness if needed and
# stages its inputs in a scratch directory it removes. Every run measures
# for run_seconds of BENCHMARK.json (with --smoke: tiny scale, 1 s). Its
# BENCH json lands in DIR (default .bench_build/sets/<timestamp>) as
# BENCH_mlcs_<workload>_seed<n>_<untraced|traced>.json, and its result line
# is printed and appended to DIR/results.jsonl. Giving two calls the same
# DIR adds to one set, which is how runs of two checkouts are interleaved.
# Compare two such directories with mlcsbench/compare.py.
set -euo pipefail

usage="usage: $0 [--sets K] [--seed N] [--smoke] [--out DIR]"
sets=1
seed=42
smoke=""
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --sets) sets="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

here="$(cd "$(dirname "$0")" && pwd)"
cd "$(dirname "$here")"
spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
workloads=$(spec '" ".join(w["name"] for w in s["workloads"])')
if [[ -n "$smoke" ]]; then
  length=("$smoke")
else
  length=(--seconds "$(spec 's["run_seconds"]')")
fi
out="${out:-.bench_build/sets/$(date +%Y%m%d-%H%M%S)}"
mkdir -p "$out"

failures=0
for ((i = 0; i < sets; i++)); do
  for w in $workloads; do
    for trace in 0 1; do
      run_seed=$((seed + i))
      args=(--workload "$w" --seed "$run_seed" --trace "$trace" --out "$out"
            "${length[@]}")
      if ! line=$(python3 "$here/run.py" "${args[@]}" | tail -n 1); then
        echo "$w seed=$run_seed trace=$trace: run failed" >&2
        failures=$((failures + 1))
        continue
      fi
      echo "$w seed=$run_seed trace=$trace $line"
      echo "{\"workload\": \"$w\", \"seed\": $run_seed, \"trace\": $trace," \
           "\"result\": $line}" >> "$out/results.jsonl"
    done
  done
done
echo "results in $out"
exit $((failures > 0))
