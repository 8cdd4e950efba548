#!/usr/bin/env python3
"""Builds the CPGAN benchmark from source and runs one workload.

    python3 perfbench/run.py --workload train|generate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
program's sources (src/) together with the benchmark into
.bench_build/perfbench (Release, -O2, the repository's own flags); later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the build fails, e.g. when the program's sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cpgan_perfbench")


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD, "--target", "cpgan_perfbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
