#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run one workload.

Run from the repository root:

    python3 simbench/run.py --workload meta_kv_linked --seed 7 --seconds 55 --trace 0

The build goes to .bench_build/simbench (CMake, Release) and its log to
stderr. All arguments are passed to the simbench binary, which prints its
report and, as the last line of stdout, the JSON result. Traced runs
(--trace 1) also write their spans to .bench_build/simbench/spans-<workload>.tsv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD, "simbench")


def build():
    """Configure once, then (re)build the simbench target; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    known, _ = parser.parse_known_args()
    if not build():
        print("simbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, *sys.argv[1:],
               "--reference", os.path.join(HERE, "reference.txt"),
               "--spans", os.path.join(BUILD, f"spans-{known.workload}.tsv")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
