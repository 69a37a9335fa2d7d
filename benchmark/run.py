#!/usr/bin/env python3
"""Builds the capmem benchmark driver and runs it.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

The driver is built from benchmark/CMakeLists.txt against the library
sources in src/ into .bench_build/ (configured once, then rebuilt
incrementally). Build output goes to stderr, so the last line of stdout is
the driver's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "capbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("benchmark: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "capbench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
