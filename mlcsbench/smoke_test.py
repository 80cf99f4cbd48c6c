#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny scale.

    python3 mlcsbench/smoke_test.py <path to the mlcs_bench binary>

Runs every workload at --smoke scale (2k voters, 16 columns, 50 precincts,
2 trees, 1 s of timed work or serving), untraced and then --traced, in a
scratch directory under the current one. Each run must exit 0 and fail no
operation. An untraced run must report every end_to_end metric of
BENCHMARK.json. A traced run reports the layers its workload exercises;
each must be a per_layer metric of BENCHMARK.json with the same unit, and
every per_layer metric must come from at least one workload. Registered
with ctest as mlcs_bench_smoke.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers_seen = set()
    scratch = tempfile.mkdtemp(prefix="mlcs_bench_smoke_", dir=os.getcwd())
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for traced in (False, True):
                label = "%s %s" % (workload, "traced" if traced else "untraced")
                cmd = [binary, "--workload=" + workload, "--seed=42", "--smoke"]
                if traced:
                    cmd.append("--traced")
                proc = subprocess.run(cmd, cwd=scratch, capture_output=True,
                                      text=True, timeout=120)
                if proc.returncode != 0:
                    errors.append("%s: exit %d\n%s" % (label, proc.returncode,
                                                       proc.stderr[-2000:]))
                    continue
                with open(os.path.join(scratch,
                                       "BENCH_mlcs_%s.json" % workload)) as f:
                    result = json.load(f)
                if traced:
                    for name, m in result["metrics"].items():
                        layers_seen.add(name)
                        if layer_units.get(name) != m["unit"]:
                            errors.append("%s: %s (%s) is no per_layer metric "
                                          "of BENCHMARK.json" % (
                                              label, name, m["unit"]))
                else:
                    missing = [m["name"] for m in spec["end_to_end"]
                               if m["name"] not in result["metrics"]]
                    if missing:
                        errors.append("%s: missing %s" % (label, missing))
                if result["failed"] != 0 or result["attempted"] == 0:
                    errors.append("%s: %d of %d operations failed: %s" % (
                        label, result["failed"], result["attempted"],
                        result["failures"]))
                print("%s: %d operations, %d failed" % (
                    label, result["attempted"], result["failed"]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    unreported = sorted(set(layer_units) - layers_seen)
    if unreported:
        errors.append("no workload reports %s" % unreported)
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
