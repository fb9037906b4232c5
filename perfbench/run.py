#!/usr/bin/env python3
"""Build and run the classfuzz end-to-end benchmark.

    python3 perfbench/run.py --workload stbr --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. The script configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs perfbench_driver.
Build output goes to standard error; perfbench_driver's result object is the
last line of standard output. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stbr", "ddfine")
# Each run must end within 180 s. perfbench_driver stops starting passes at
# --seconds but always completes its first round.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
EXPECTED_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    # Children inherit stderr only, so stdout stays the result channel.
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no classfuzz sources at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds < 1:
        fail("--seconds must be positive")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True)

    def stop_child(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("perfbench_driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail("perfbench_driver exited with %d" % child.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])
    if set(result) != EXPECTED_KEYS:
        fail("result has keys %s" % sorted(result))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
