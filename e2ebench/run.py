#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (arabench) from a repository root.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Builds e2ebench/ (which compiles ../src) into .bench_build/ on first use,
then runs one workload. The last line of standard output is the run's JSON
result. Every other argument is passed through to arabench (--units,
--depth, --fan-in, --out). Exits non-zero, without a result, when the
analyzer sources are missing, the build fails, or the run does not finish
within its time limit: --seconds plus SETUP_ALLOWANCE_S for the set-ups and
the post-load checks.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
SETUP_ALLOWANCE_S = 150
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root):
    bench_dir = os.path.join(root, "e2ebench")
    if not os.path.isfile(os.path.join(root, "src", "driver", "compiler.hpp")):
        fail("analyzer sources (src/) not found; run from the repository root")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "arabench", "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "arabench")


def run_timeout(args):
    """--seconds (as arabench will parse it; its default is 10) plus the allowance."""
    seconds = 10
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds" and value.isdigit():
            seconds = int(value)
    return seconds + SETUP_ALLOWANCE_S


def main():
    root = os.getcwd()
    binary = build(root)
    args = sys.argv[1:]
    timeout = run_timeout(args)
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("arabench did not finish within %d s" % timeout)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode != 0:
        fail("arabench exited with status %d" % done.returncode)


if __name__ == "__main__":
    main()
