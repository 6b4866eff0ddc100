#!/usr/bin/env python3
"""Client-seen search latency through xksd and xks_coord.

Builds the xks libraries and the xks_perfbench program from this checkout
(Release, under .bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload warm-lone --seed 1 --seconds 30 --trace 0

The last stdout line is the JSON result. Other modes:

    --report             every workload (or --workload), traced and untraced:
                         every end-to-end and per-layer metric by name
                         with its unit and sample count, plus the share
                         of first_page_p50_ms no layer accounts for
    --steadiness N       each workload N times with seeds 1..N; median,
                         quartiles and min/max spread of every metric
    --ladder             climb the workload's fixed rate ladder and report
                         sustained_qps
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "xks_perfbench")
WORKLOADS = ["warm-lone", "cold-scan", "fleet-walk", "churn"]


def build():
    """Configures and builds xks_perfbench; exits non-zero on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: xks sources not found next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "xks_perfbench",
         "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit("perfbench: build failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs xks_perfbench once; returns (report lines, parsed JSON result)."""
    os.makedirs(DATA_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--data-dir", DATA_DIR, *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %s failed (exit %d)" %
                 (workload, seed, done.returncode))
    return lines[:-1], json.loads(lines[-1])


def metric_lines(lines):
    """{name: (value, unit, samples)} from 'metric' report lines."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 6 and parts[0] == "metric":
            metrics[parts[2]] = (float(parts[3]), parts[4], parts[5])
    return metrics


def report(workloads, seed, seconds):
    for workload in workloads:
        untraced, result = run_once(workload, seed, seconds, 0)
        traced, traced_result = run_once(workload, seed, seconds, 1)
        for mode, outcome in (("untraced", result), ("traced", traced_result)):
            if not outcome["correct"]:
                print("# %s NOT CORRECT in the %s run: %d of %d failed"
                      % (workload, mode, outcome["failed"],
                         outcome["attempted"]))
        # The traced run computes the unattributed share against the
        # untraced half of its own phase; print it next to the end-to-end
        # number it divides.
        e2e = metric_lines(untraced).get("first_page_p50_ms")
        rest = metric_lines(traced).get("unattributed.first_page_p50_share")
        if e2e and rest:
            print("# %s first_page_p50_ms %.4g ms, unattributed share %.3f"
                  % (workload, e2e[0], rest[0]))


def steadiness(workloads, runs, seconds, trace):
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(1, runs + 1):
            _, result = run_once(workload, seed, seconds, trace, echo=False)
            if not result["correct"] or result["failed"] != 0:
                print("# %s seed %d: correct=%s failed=%d"
                      % (workload, seed, result["correct"], result["failed"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("run %s seed=%d %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, metric["value"])
                for name, metric in result["metrics"].items())), flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print("steady %s %s median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g "
                  "iqr/median=%.4f %s n=%d" %
                  (workload, name, median, q1, q3, min(series), max(series),
                   spread, units[name], len(series)), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="N", default=0)
    parser.add_argument("--ladder", action="store_true")
    args = parser.parse_args()

    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.report:
        report(workloads, args.seed, args.seconds)
    elif args.steadiness:
        steadiness(workloads, args.steadiness, args.seconds, args.trace)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        extra = ["--ladder"] if args.ladder else []
        _, result = run_once(args.workload, args.seed, args.seconds,
                             args.trace, extra, echo=True)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
