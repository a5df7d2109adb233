#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

    python3 campaignbench/run.py --workload paper_repro --seed 20141105 \
        --seconds 30 --trace 0

Run from the root of a checkout. The binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on the first run; later runs only
check that it is up to date. The last line of standard output is the
benchmark's JSON result; build output goes to standard error. Exits
nonzero, without a result, when the simulator sources are missing or the
build fails, and nonzero, with a result whose "correct" is false, when an
output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "study.h")):
        print("campaignbench: simulator sources (src/) not found next to "
              + HERE, file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "campaign_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "campaign_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_repro", "fleet_cold"])
    parser.add_argument("--seed", type=int, default=20141105)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("campaignbench: build failed: %s" % error, file=sys.stderr)
        return 2
    if binary is None:
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    # The program receives only the Scenario the benchmark builds: no
    # CURTAIN_* environment knob may reach it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURTAIN_")}
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--size", args.size, "--out", out_dir],
        env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
