#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run it.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--json PATH]

The binary is configured and built under .bench_build/e2e at the checkout
root (an up-to-date build is a no-op). Build output goes to stderr, so the
last line on stdout is the binary's JSON result. The exit code is the
binary's: 0 when every correctness check passed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: no treu sources (src/) in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench_e2e")


def main():
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"bench_e2e: build failed: {e}")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
