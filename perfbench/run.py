#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

The first call configures and builds perfbench/CMakeLists.txt (which
compiles the critics library from src/) into .bench_build/perfbench;
later calls only re-check the build.  Build output goes to stderr.  The
benchmark then replaces this process: its stdout ends with one JSON
line, {"correct", "attempted", "failed", "metrics"}.  A failed build
exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
WORK_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench-work")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe, "--work-dir", WORK_DIR] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
