#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from the checkout's own sources into .bench_build/
(configured on first use, rebuilt incrementally after that; build output goes
to stderr). Runs pin RT_THREADS=4. The binary's stdout is passed through and
its last line, the JSON result, is checked for the agreed keys before this
script exits 0. --selftest builds, runs the C++ self-test and checks that the
metric names, units and kinds the binary reports match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail("no repo sources next to perfbench/ (expected src/ and CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "perfbench",
                    "perfbench_selftest"], stdout=sys.stderr, check=True)


def run_env():
    env = dict(os.environ)
    env["RT_THREADS"] = "4"
    # The benchmark keeps its registry in memory; any checkpoint cache the
    # library might open still stays inside the checkout.
    env["RT_CACHE_DIR"] = os.path.join(OUT, "cache")
    return env


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError("metric %s is malformed" % name)


def selftest():
    rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    listed = subprocess.run([os.path.join(BUILD, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout.split("\n")
    reported = [tuple(line.split()) for line in listed if line.strip()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = [(m["name"], m["unit"], "end_to_end") for m in bench["end_to_end"]]
    declared += [(m["name"], m["unit"], "per_layer") for m in bench["per_layer"]]
    names_ok = sorted(reported) == sorted(declared)
    print("%s metric names, units and kinds match BENCHMARK.json" %
          ("ok  " if names_ok else "FAIL"))
    if not names_ok:
        print("  only in the binary: %s" % sorted(set(reported) - set(declared)))
        print("  only in BENCHMARK.json: %s" % sorted(set(declared) - set(reported)))
    workloads = [w["name"] for w in bench["workloads"]]
    workloads_ok = workloads == ["serve_zipf", "eval_batch", "train_ticket"]
    print("%s workload names match BENCHMARK.json" % ("ok  " if workloads_ok else "FAIL"))
    return 0 if rc == 0 and names_ok and workloads_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=run_env(), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        check_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        fail("bad result line: %s" % e)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
