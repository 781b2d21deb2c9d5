#!/usr/bin/env python3
"""Serving benchmark runner.

One run (what BENCHMARK.json's command invokes):

    python3 servebench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

builds the measuring program from the library sources next to this
directory (into .bench_build/, incrementally), runs one workload, and passes
its output through: the last stdout line is the JSON result.

    python3 servebench/run.py --steadiness [--runs 5] [--seed 1] [--vary-seed]

runs each workload --runs times on one seed and once more on a second seed
(with --vary-seed, every run gets its own seed instead) and prints, per
metric, the median, quartiles, min/max, the spread against the metric's bound
in BENCHMARK.json, and each run's host steal share.

    python3 servebench/run.py --self-check

runs every workload at smoke size and checks that every named metric is
printed with its unit, that two runs on one seed send byte-identical request
streams, and that they agree on value_match_ratio and ok_ratio.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["sweep_cold", "wire_hot", "online_deadline"]
SMOKE_SECONDS = 2


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to servebench/ (src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "servebench", "-j", jobs])
    for step in steps:
        # The build log is shown only on failure: stdout ends with the result line.
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(step))


def command(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACE_DIR, "%s-seed%s.json" % (workload, seed))]
    return cmd


def run_captured(workload, seed, seconds, trace):
    """One run; returns (diagnostics, result) parsed from its last two lines."""
    proc = subprocess.run(command(workload, seed, seconds, trace), stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s seed %s exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    flagged = []
    for workload in args.workloads.split(","):
        if args.vary_seed:
            seeds = [args.seed + i for i in range(args.runs)]
        else:
            seeds = [args.seed] * args.runs + [args.seed + 1]
        runs = []
        for seed in seeds:
            diag, result = run_captured(workload, seed, seconds, False)
            runs.append((seed, diag, result))
            print("  %s seed %d: steal %.4f, correct %s" % (
                workload, seed, diag["host.steal_share"], result["correct"]), file=sys.stderr)
        measured = runs if args.vary_seed else runs[:-1]
        print("\n== %s: %d runs, %s, %gs each" % (
            workload, len(measured), "one seed each" if args.vary_seed else "seed %d" % args.seed,
            seconds))
        print("steal share per run: " + " ".join("%.4f" % r[1]["host.steal_share"] for r in runs))
        print("%-20s %12s %12s %12s %12s %12s %8s %6s%s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "bound",
            "" if args.vary_seed else "  second-seed"))
        for name in bounds:
            values = [r[2]["metrics"][name]["value"] for r in measured]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            mark = ""
            if spread > bounds[name]:
                mark = "  <-- spread exceeds bound"
                flagged.append("%s/%s" % (workload, name))
            other = "" if args.vary_seed else "  %12.6g" % runs[-1][2]["metrics"][name]["value"]
            print("%-20s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3f%s%s" % (
                name, median, q1, q3, min(values), max(values), spread, bounds[name], other, mark))
            print("%-20s %s" % ("", " ".join("%.6g" % v for v in values)))
    print("\nflagged: " + (", ".join(flagged) if flagged else "none"))
    return 1 if flagged else 0


def self_check():
    spec = load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []

    def check_metrics(workload, result, expected):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            problems.append("%s: metrics/units differ from BENCHMARK.json: missing %s, extra %s" % (
                workload, sorted(set(expected.items()) - set(got.items())),
                sorted(set(got.items()) - set(expected.items()))))

    for workload in WORKLOADS:
        diag_a, a = run_captured(workload, 7, SMOKE_SECONDS, False)
        diag_b, b = run_captured(workload, 7, SMOKE_SECONDS, False)
        _, traced = run_captured(workload, 7, SMOKE_SECONDS, True)
        check_metrics(workload, a, e2e)
        check_metrics(workload + " (traced)", traced, per_layer)
        if diag_a["stream_hash"] != diag_b["stream_hash"]:
            problems.append("%s: one seed sent two different request streams" % workload)
        for name in ("value_match_ratio", "ok_ratio"):
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if abs(va - vb) > bounds[name] * max(va, vb):
                problems.append("%s: %s differs between two runs on one seed (%g vs %g)" % (
                    workload, name, va, vb))
        for result in (a, b, traced):
            if not result["correct"]:
                problems.append("%s: a smoke run reported correct=false" % workload)
        print("%s: checked" % workload, file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("self-check: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build()
    if args.steadiness:
        return steadiness(args)
    if args.self_check:
        return self_check()
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required for a single run")
    return subprocess.run(command(args.workload, args.seed, args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
