#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and one seed.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 10 --trace 0

The first run configures and builds the library from ``src/`` together with
the program in this directory (Release) under ``.bench_build/perfbench``;
later runs rebuild incrementally.  Build output goes to stderr.  The program
runs in its own process, so its peak resident memory is the workload's own.
The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("dense", "sparse", "datacenter-sharded", "certify")
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
RUN_TIMEOUT_S = 170


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(bench_dir):
    """Configures (once) and builds the program; returns its path."""
    jobs = str(cpu_count())
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "perfbench"


def source_id(root):
    """Identifies the code measured: the git commit when there is one,
    otherwise a SHA-256 over the library sources and the benchmark."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = pathlib.Path(__file__).resolve().parent
    root = bench_dir.parent
    try:
        binary = build(bench_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--commit", source_id(root)]
    if args.trace:
        command += ["--trace-out", str(
            BUILD_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")]
    # The sharded workload's pool is capped at the cores this process may
    # use; every other workload is single-threaded.
    env = dict(os.environ, RRS_THREADS=str(cpu_count()))
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
