#!/usr/bin/env python3
"""Builds the benchmark harness if needed, runs one workload, prints one JSON line.

    python3 mlcsbench/run.py --workload fig1-rf --seed 7 --seconds 20 --trace 0

Run from the repository root. The harness (mlcs_bench) is built from source
with CMake into $CARGO_TARGET_DIR/mlcsbench (default .bench_build/mlcsbench).
It runs in a fresh scratch directory under the build directory, which is
removed afterwards. With --trace 0 the result carries every end_to_end metric
of BENCHMARK.json, with --trace 1 every per_layer metric. The last line of
standard output is the result:

    {"correct": true, "attempted": 28, "failed": 0, "metrics": {...}}

Build and harness logs go to standard error. Any failure to build or run
exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mlcsbench")


def build():
    """Configures and builds mlcs_bench; returns its path or None."""
    build = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", "mlcs_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    return os.path.join(build, "mlcs_bench")


def run_harness(binary, args):
    """Runs one workload in a scratch directory; returns its BENCH json."""
    scratch = tempfile.mkdtemp(prefix="run_", dir=os.path.dirname(binary))
    try:
        cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed]
        if args.seconds is not None:
            cmd.append("--seconds=%g" % args.seconds)
        if args.trace:
            cmd.append("--traced")
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=scratch, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            log("mlcs_bench exited with %d" % proc.returncode)
            return None
        path = os.path.join(scratch, "BENCH_mlcs_%s.json" % args.workload)
        with open(path) as f:
            result = json.load(f)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            name = "BENCH_mlcs_%s_seed%d_%s.json" % (
                args.workload, args.seed, "traced" if args.trace else "untraced")
            shutil.copyfile(path, os.path.join(args.out, name))
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig1-rf", "transfer", "serve-live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, for checking the harness")
    parser.add_argument("--out", help="also keep the BENCH json here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    log("build ready after %.1fs" % (time.monotonic() - started))
    result = run_harness(binary, args)
    if result is None:
        return 1

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and args.trace:
            # The harness reports only the layers a workload exercises.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            log("harness did not report %s" % m["name"])
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
