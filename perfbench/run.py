#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources, runs one workload, and
prints its result as the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the checkout. With --trace 0 the end-to-end metrics come from two processes:
one measures peak RSS after a single repetition, the other repeats the
workload for S seconds. With --trace 1 one process reports the per-layer
metrics. The exit code is 0 only when the build succeeded and every output
check passed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
# Headroom beyond --seconds: the self-test, the last repetition that
# started before the deadline, and the replays of a traced run.
RUN_HEADROOM_S = 100


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no fastcommit sources beside perfbench/: "
             "run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run(binary, args, seconds):
    """Runs the binary; returns (exit code, context lines, result dict)."""
    done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=seconds + RUN_HEADROOM_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result (exit code %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench's last line is not JSON: " + lines[-1])
    return done.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    codes = []
    if args.trace == 0:
        code, _, rss = run(binary, common + ["--rss"], args.seconds)
        codes.append(code)
    code, context, result = run(binary, common, args.seconds)
    codes.append(code)
    if args.trace == 0:
        result["correct"] = result["correct"] and rss["correct"]
        result["attempted"] += rss["attempted"]
        result["failed"] += rss["failed"]
        result["metrics"].update(rss["metrics"])

    for line in context:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
