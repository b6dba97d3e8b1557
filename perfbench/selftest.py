#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs perfbench/run.py
at self-test sizes (--small, one second) untraced and traced, and checks:

  * the run exits 0, its checks pass and its last line is the result JSON;
  * every end-to-end metric is above zero in every untraced run;
  * every per-layer metric of BENCHMARK.json is measured, with its
    declared unit, by at least one workload's traced run;
  * the traced run wrote its spans and folded stacks;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("FAIL: " + message)
    return 1


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_run(workload, trace, measured):
    """One run; adds the metrics the binary measured to `measured`."""
    done = run(workload, trace)
    name = "%s trace=%d" % (workload, trace)
    if done.returncode != 0:
        return fail("%s exited %d:\n%s" % (name, done.returncode,
                                            done.stderr[-2000:]))
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    measured.update(json.loads(lines[-2])["measured"])
    errors = 0
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors += fail("%s: result keys %s" % (name, sorted(result)))
    if result.get("correct") is not True:
        errors += fail("%s: output checks failed:\n%s" % (name, done.stdout))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors += fail("%s: attempted must be a whole number >= 1" % name)
    for metric, got in result.get("metrics", {}).items():
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors += fail("%s: %s is not a finite number" % (name, metric))
        elif trace == 0 and value <= 0:
            errors += fail("%s: %s is %r, expected > 0" % (name, metric, value))
    if trace == 1:
        spans = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"),
                             "perfbench", "spans", workload + "-seed1")
        for suffix in (".spans.tsv", ".folded"):
            if not os.path.getsize(spans + suffix):
                errors += fail("%s: %s%s is empty" % (name, spans, suffix))
    print("%s %s" % ("ok  " if errors == 0 else "FAIL", name))
    return errors


def check_bare():
    """Only BENCHMARK.json and perfbench/: the run must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coldstart",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return fail("a bare checkout printed a result or exited 0")
    print("ok   bare checkout fails without a result")
    return 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = 0
    traced = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        errors += check_run(workload, 0, {})
        errors += check_run(workload, 1, traced)
    for m in bench["per_layer"]:
        got = traced.get(m["name"])
        if got is None:
            errors += fail("per-layer metric %s is measured by no workload" %
                           m["name"])
        elif got["unit"] != m["unit"]:
            errors += fail("%s has unit %r, BENCHMARK.json says %r" %
                           (m["name"], got["unit"], m["unit"]))
    errors += check_bare()
    print("selftest: %s" % ("ok" if errors == 0 else "%d failures" % errors))
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
