#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--requests <n>] [--corrupt-oracle]

The benchmark is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A traced run also
writes its spans to <build dir>/spans/<workload>-seed<n>.json.

The benchmark measures the engine at its shipped defaults, so it refuses to
run while any MINIDB_* environment override is set.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sat_count", "graphical_batch", "triplestore_serve",
             "semiring_dense")
BUILD_JOBS = "4"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    # Configuring every time is cheap once cached, and keeps a build tree
    # made by an older revision of this file in step with it.
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "--target", "perfbench",
              "-j", BUILD_JOBS]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--requests", type=int)
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    overrides = sorted(k for k in os.environ if k.startswith("MINIDB_"))
    if overrides:
        print("perfbench: refusing to run with engine overrides set: " +
              ", ".join(overrides) + " (the benchmark measures the shipped "
              "defaults)", file=sys.stderr)
        return 2

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.requests is not None:
        command += ["--requests", str(args.requests)]
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
