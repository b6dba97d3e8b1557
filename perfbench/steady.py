#!/usr/bin/env python3
"""Steadiness across seeds: runs one workload once per seed and reports,
for every metric, the median, the quartiles and the quartile spread as a
share of the median -- the figure BENCHMARK.json's bounds are set against.

    python3 perfbench/steady.py --workload coldstart --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root. Each run goes through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    values = {}
    units = {}
    ok = True
    for seed in seed_list(args.seeds):
        start = time.time()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print("seed %d: run failed" % seed)
            ok = False
            continue
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        ok = ok and result["correct"]
        line = ["seed %d %.1fs correct=%s failed=%d" %
                (seed, time.time() - start, result["correct"],
                 result["failed"])]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            line.append("%s=%.6g" % (name, metric["value"]))
        print(" ".join(line), flush=True)

    print("%-40s %6s %14s %14s %14s %8s %8s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound/3"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        third = "%.4f" % (bound / 3) if bound else "-"
        flag = " <-- over" if bound and spread > bound / 3 else ""
        print("%-40s %6s %14.6g %14.6g %14.6g %8.4f %8s%s" %
              (name, units[name], med, q1, q3, spread, third, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
