#!/usr/bin/env python3
"""Builds and runs the bertha benchmark.

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark from source into .bench_build/ (a few minutes);
later runs reuse that build. Everything the benchmark binary prints is
passed through; its last line is the JSON result. See NOTES.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "endpoint.hpp")):
        log("bertha sources (src/) not found next to perfbench/")
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["rpc_small", "stream_duplex", "connect_churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
