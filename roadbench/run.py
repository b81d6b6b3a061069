#!/usr/bin/env python3
"""Builds and runs the roadmine benchmark from the root of a checkout.

    python3 roadbench/run.py --workload paper_study --seed 42 --seconds 40 --trace 0
    python3 roadbench/run.py --self-check

The first call configures and builds roadbench/ (the library sources
under src/ plus the benchmark binary) into .bench_build/roadbench; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the JSON result. Scratch files (pages, CSV) live in
.bench_build/work-<pid> and are removed when the run ends.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "roadbench")
BINARY = os.path.join(BUILD_DIR, "roadbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("roadbench: no library sources under src/; nothing to build",
              file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("roadbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required (or pass --self-check)")

    if not build():
        return 1

    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    command = [BINARY, "--work-dir", work_dir]
    if args.self_check:
        command.append("--self-check")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("roadbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
