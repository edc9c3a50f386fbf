#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload paper-phased --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (a CMake project over the
repository's src/) into $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench
when that variable is unset; later calls rebuild incrementally.  The binary's
report goes to stdout and its last line is the JSON result object; build
output goes to stderr.  Without the repository's sources next to this
directory, or when any output check fails, it exits non-zero and prints no
result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-phased", "hot-read", "tcp-durable")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# glibc malloc backs its heap with transparent huge pages.  On a shared
# host, a hit (a few microseconds of scattered heap reads) otherwise slows
# by up to half while neighbours crowd the last-level cache, and its
# latency figures wander twice as far between runs as they do with them.
MALLOC_TUNABLE = "glibc.malloc.hugetlb=1"


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; fail on error."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no system sources under {ROOT}/src to build")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def child_env():
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + [MALLOC_TUNABLE])
    return env


def run_child(cmd):
    """Run the benchmark binary to completion (or kill it at the timeout)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             env=child_env())
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return child.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        code, stdout = run_child([build("e2ebench_selftest")])
        sys.stdout.write(stdout)
        sys.exit(code)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build("e2ebench")
    workdir = os.path.join(build_dir(), "tmp")
    os.makedirs(workdir, exist_ok=True)
    try:
        code, stdout = run_child([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir])
    finally:
        # The binary removes its WAL directories itself; this catches a
        # crash that skipped that.
        shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(stdout)
        fail(f"{args.workload} failed with exit code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("the benchmark printed no result line")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        sys.stderr.write(stdout)
        fail("the benchmark's result is malformed or incorrect")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
