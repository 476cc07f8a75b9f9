#!/usr/bin/env python3
"""iwscan benchmark entry point.

Builds the iwbench binary from this checkout's sources (CMake, Release)
and runs one workload in its own process:

    python3 iwbench/run.py --workload stateful_http --seed 0 --seconds 20 --trace 0

``--seed n`` selects the input pair (population seed, scan seed) =
(42 + n, 7 + n); seed 0 is the repository's default world (42, 7).
``--seed 1000`` is the hold-out pair (1042, 1007): a claimed gain must also
hold there.

The build and all run files live under $CARGO_TARGET_DIR (default
``.bench_build``) in the checkout. Build output goes to stderr; the last
line of stdout is the workload's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stateful_http", "sweep_tls_capped", "spill_merge")
BASE_POPULATION_SEED = 42
BASE_SCAN_SEED = 7
HOLDOUT_SEED = 1000  # a claimed gain must also hold at this --seed
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "iwbench")


def build(directory, targets=("iwbench",)):
    """Configures (once) and builds `targets`; returns the iwbench binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "iwscan.hpp")):
        sys.exit("iwbench: no iwscan sources next to the benchmark (src/ is missing)")
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j4", "--target", *targets])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if result.returncode != 0:
            sys.exit("iwbench: build step failed: " + " ".join(step))
    return os.path.join(directory, "iwbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    directory = build_dir()
    binary = build(directory)
    work = os.path.join(directory, "work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--population-seed", str(BASE_POPULATION_SEED + args.seed),
               "--scan-seed", str(BASE_SCAN_SEED + args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("iwbench: workload exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
