#!/usr/bin/env python3
"""Sensitivity self-test of the end-to-end benchmark.

Run from the root of a featsep checkout (it takes a few minutes):

    python3 perfbench/test_sensitivity.py [--seeds 3] [--seconds 10]

It plants changes through public options only and compares each against
unmodified runs with the benchmark's own rule: a metric regresses when the
median over the seeds is worse than the baseline median by more than the
metric's bound in BENCHMARK.json.

  - Two sets of unmodified runs of each workload in BENCHMARK.json must not
    regress on any end-to-end metric.
  - fit-cold with one shard and a serial pair sweep ("serial") must regress
    on ops_per_s.
  - serve-zipf with the in-memory answer cache off ("nocache") must regress
    on p50_ms.

Exits 0 when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bounds():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            [w["name"] for w in spec["workloads"]])


def run_set(workload, seeds, seconds, degrade=""):
    values = {}
    for seed in seeds:
        command = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        if degrade:
            command += ["--degrade", degrade]
        out = subprocess.run(command, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("run failed: %s\n%s" % (" ".join(command), out.stderr))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("wrong answers in: " + " ".join(command))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def worsening(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    bounds, workloads = load_bounds()
    seeds = list(range(101, 101 + args.seeds))
    failures = []

    def check(label, ok, detail):
        print("%-4s %s: %s" % ("ok" if ok else "FAIL", label, detail),
              flush=True)
        if not ok:
            failures.append(label)

    baselines = {}
    for workload in workloads:
        first = run_set(workload, seeds, args.seconds)
        second = run_set(workload, seeds, args.seconds)
        baselines[workload] = first
        for name, metric in bounds.items():
            worse = worsening(metric, first[name], second[name])
            check("%s unmodified rerun, %s" % (workload, name),
                  worse <= metric["bound"],
                  "%.1f%% worse, bound %.0f%%" %
                  (100 * worse, 100 * metric["bound"]))

    # serve-zipf is not gated (README.md), but its p50 is steady enough to
    # show the planted cache removal.
    baselines["serve-zipf"] = run_set("serve-zipf", seeds, args.seconds)
    planted = [("fit-cold", "serial", "ops_per_s"),
               ("serve-zipf", "nocache", "p50_ms")]
    for workload, degrade, name in planted:
        degraded = run_set(workload, seeds, args.seconds, degrade)
        metric = bounds[name]
        worse = worsening(metric, baselines[workload][name], degraded[name])
        check("%s --degrade %s, %s" % (workload, degrade, name),
              worse > metric["bound"],
              "%.1f%% worse, bound %.0f%%" %
              (100 * worse, 100 * metric["bound"]))

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
