#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gnutella-lab --seed 1 --seconds 10 --trace 0

The program is configured and built in Release under $CARGO_TARGET_DIR
(default .bench_build)/perfbench on first use; later runs only re-check
the build. The last line of standard output is the run's JSON result.
Exits non-zero, printing no result, if the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gnutella-lab", "oracle-open", "coldstart")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    """BENCHMARK.json's metric list for this mode: per_layer when traced."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def make_result(line, declared, trace):
    """The result object from the binary's last line, which carries every
    metric the run measured: BENCHMARK.json's metrics with their declared
    units. A per-layer metric the workload never measures reads 0; an
    end-to-end metric must be measured."""
    run = json.loads(line)
    if set(run) != {"correct", "attempted", "failed", "measured"}:
        raise ValueError("unexpected keys: %s" % sorted(run))
    metrics = {}
    for m in declared:
        got = run["measured"].get(m["name"])
        if got is None and not trace:
            raise ValueError("end-to-end metric %s not measured" % m["name"])
        if got is not None and got["unit"] != m["unit"]:
            raise ValueError("%s measured in %s, BENCHMARK.json says %s" %
                             (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test sizes (seconds, not minutes)")
    args = parser.parse_args()

    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as err:
        print("perfbench: cannot read BENCHMARK.json: %s" % err,
              file=sys.stderr)
        return 1
    out = build_dir()
    # Temporary files of the compiler and the run stay inside the build dir.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(out, env)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", spans]
    if args.small:
        cmd.append("--small")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        print("perfbench: run failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        result = make_result(lines[-1], declared, args.trace)
    except (ValueError, KeyError, TypeError) as err:
        sys.stdout.write(done.stdout)
        print("perfbench: bad result line: %s" % err, file=sys.stderr)
        return 1
    if not result["correct"]:
        print("perfbench: output checks failed (see CHECK FAILED lines)",
              file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
