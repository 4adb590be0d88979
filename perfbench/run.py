#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ -- which compiles the
library from the repository's src/ -- with CMake in Release mode, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only check the build is current. The workload then runs in one process
with the linalg thread pool sized to one thread.

Everything the benchmark prints goes through; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json lists for the mode: "end_to_end" with
--trace 0, "per_layer" with --trace 1. Traced runs also write their spans
as JSON lines next to the build. The exit code is non-zero, with no result
line, when the build fails or a metric is missing, and non-zero after the
result line when an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build_dir = os.path.join(root, build_dir)
    steps = []
    # A configure that failed leaves a cache but no build files behind.
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", "perfbench"])
    for step in steps:
        # Build output goes to stderr so the result stays the last stdout line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir, os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir, binary = build(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha(root)]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        inner = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("no result line (exit code %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = inner["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(inner["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": inner["attempted"],
                      "failed": inner["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
