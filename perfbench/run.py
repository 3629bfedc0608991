#!/usr/bin/env python3
"""Run one workload of the PipeLayer host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a PipeLayer checkout.  The first run builds the
repository's libraries and the benchmark from source into
.bench_build/perfbench; later runs reuse that build.  Build output goes
to stderr.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A traced run also writes its spans to .bench_build/spans-NAME-seedN.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170  # one run must end within 180 s
BUILD_JOBS = "4"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no PipeLayer sources (CMakeLists.txt, src/) next to "
             "perfbench/; run from the root of a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--spans=" + os.path.join(
            BUILD_ROOT, "spans-%s-seed%d.json" % (args.workload, args.seed)))
    # What users get: automatic SIMD dispatch, no profiler, and the
    # thread count each workload pins.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PL_ISA", "PL_THREADS", "PL_PROFILE")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("no result line", 1)
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted(missing)), 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
