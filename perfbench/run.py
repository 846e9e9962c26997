#!/usr/bin/env python3
"""Builds and runs the end-to-end server benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run it from the repository root. It configures and builds perfbench/ (which
builds the fdc library from src/) with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs perfbench_server with the same
arguments. Build output goes to stderr; the benchmark's report, ending in
one JSON line, goes to stdout. Span traces of --trace 1 runs are written
under <build dir>/traces/; the adhoc_text query universe, the same in every
run of a build, is kept under <build dir>/cache/. Exits non-zero, printing
no result, when the sources or the build are missing.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark; serialized by a lock."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target",
                      "perfbench_server", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench_server")
    if not os.path.exists(binary):
        fail("build produced no perfbench_server")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm_templates", "adhoc_text", "churn_rollout"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size workload (the benchmark's own test)")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to perfbench/: run from a full checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(os.path.join(build_dir, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(build_dir, "traces"),
           "--cache-dir", os.path.join(build_dir, "cache")]
    if args.small:
        cmd.append("--small")
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
