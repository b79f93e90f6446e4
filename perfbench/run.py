#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload read_heavy|rmw_reorg|restart \
        --seed N --seconds S --trace 0|1 [--plant fetch_spin|rx_delay|corrupt]

Run from the root of a source checkout. The engine (src/) and the benchmark
(perfbench/) are compiled from source into .bench_build/ (or
$CARGO_TARGET_DIR when set) with CMake, incrementally after the first run.
Build output goes to stderr; the benchmark's run-context line and its JSON
result line go to stdout, the result last. The exit code is the benchmark's:
non-zero on a correctness violation, a build failure or a bad argument.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("read_heavy", "rmw_reorg", "restart")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def source_rev(root):
    """The git revision, or a hash of the sources when not in a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no engine sources (src/) in " + root, file=sys.stderr)
        return None
    bench_build = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      bench_build, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bench_build, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(bench_build, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--plant", choices=("fetch_spin", "rx_delay", "corrupt"))
    args = p.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", source_rev(root)]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(build_dir, "spans-%s.tsv" % args.workload)]
    if args.plant:
        cmd += ["--plant", args.plant]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
