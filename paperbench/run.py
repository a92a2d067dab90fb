#!/usr/bin/env python3
"""Builds the paper-workload benchmark from source and runs one workload.

Run from the repository root:

    python3 paperbench/run.py --workload fig8_hbp --seed 1 --seconds 30 --trace 0

The driver is built with CMake under .bench_build/paperbench (Release, the
repository's own compile flags) on first use; later runs only re-check the
build.  Build output goes to stderr, so the last stdout line is the
driver's JSON result.  `--record` rewrites reference.txt from the current
program instead of measuring (see README.md for when that is legitimate).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
REFERENCE = os.path.join(HERE, "reference.txt")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--parallel", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")
    if not args.record and not os.path.exists(REFERENCE):
        print(f"missing {REFERENCE}", file=sys.stderr)
        return 2
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    driver = os.path.join(BUILD, "paperbench")
    if args.record:
        cmd = [driver, "--record", REFERENCE]
    else:
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", REFERENCE]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
