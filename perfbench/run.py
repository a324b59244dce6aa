#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_matrix --seed 7 --seconds 30 --trace 0

Run it from the repository root. `--workload all` runs the three workloads
one after another, each in its own process. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root, with the repository's default
RelWithDebInfo flags; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the per-layer report
is also written to <build>/perfbench/reports/<workload>.json. See
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_matrix", "carrefour_churn", "admission_churn")


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "xnuma_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "xnuma_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden-dir", os.path.join(HERE, "golden"), "--report-dir", reports]
        status = subprocess.run(cmd).returncode
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
