#!/usr/bin/env python3
"""Build and run the lotterybus benchmark.

    python3 perfbench/run.py --workload bus_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
reuse the build.  All build output goes to stderr, so the last line of
stdout is the benchmark's JSON result (with `--workload all`, each
workload's output follows the previous one's).  Exits non-zero, without a
result, when the library sources are missing or the build fails, and
non-zero when any output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bus_paper", "mesh_paper", "lbd_warm", "lbd_cold")


def source_revision():
    """git HEAD when the checkout is a repository, plus a digest of src/ so
    checkouts without .git are still told apart."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    rev = "src-" + digest.hexdigest()[:16]
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return rev  # never let git find a repository above the checkout
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            rev = head.stdout.strip() + "/" + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: %s/src is missing; the benchmark builds the "
                 "library from the repository checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "lbperf",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "lbperf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    rev = source_revision()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", rev, "--out-dir", out_dir]
        sys.stdout.flush()
        status = subprocess.run(cmd).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
