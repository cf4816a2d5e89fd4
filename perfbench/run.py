#!/usr/bin/env python3
"""Builds the psga benchmark from this checkout's sources and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds `.bench_build/perfbench` (the library as
the root CMakeLists.txt defines it, plus perfbench/src); later runs only let
the build system confirm it is up to date. Build output and the human-readable
report go to stderr. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names and units are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1) before it is printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "psga_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def call(command, timeout):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       env=env, timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail("build step failed: %s" % error)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no psga sources in %s (missing %s)" % (ROOT, needed))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD, "-j", jobs, "--target", "psga_perfbench"],
         BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return {m["name"]: m["unit"]
            for m in contract["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys differ from the contract: %s" % sorted(result))
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected_metrics(trace):
        fail("metric names/units differ from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("psga_perfbench exited with %d" % proc.returncode)
    check_result(lines[-1], args.trace == "1")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
