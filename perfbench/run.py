#!/usr/bin/env python3
"""Builds and runs the layered PAMA benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload app-evict --seed 1 --seconds 10 --trace 0

Builds `pamad` (from the repository's workspace) and the `perfbench`
package (its own workspace, in this directory) in release mode, then
runs one workload. Build output goes to standard error; the benchmark's
table and its one-line JSON result go to standard output, the JSON
last. Cargo's target directory is `$CARGO_TARGET_DIR`, or `.bench_build`
at the repository root when that is unset.

wire-mix runs on one CPU: the client and pamad hand every burst back and
forth, and on a virtual machine a hand-off between CPUs costs a wake-up
whose latency the host decides. In alternating runs on a two-vCPU
virtual machine, pinning cut the interquartile spread of `ops_s` from
0.30 to 0.18 of its median.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("app-evict", "hot-read", "wire-mix")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build(env):
    """Builds pamad and perfbench; returns cargo's exit code."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "pama-server", "--bin", "pamad"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if code != 0:
            return code
    return 0


def main():
    args = parse_args()
    server = os.path.join(ROOT, "crates", "server", "Cargo.toml")
    if not os.path.isfile(server):
        print(f"perfbench: {server} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)  # an absolute target is kept as is
    code = build(env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--pamad", os.path.join(release, "pamad"),
    ]
    pin = None
    if args.workload == "wire-mix":
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    return subprocess.run(cmd, cwd=ROOT, preexec_fn=pin).returncode


if __name__ == "__main__":
    sys.exit(main())
