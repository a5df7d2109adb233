#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, for one seed at a time.

    python3 campaignbench/spread.py [--workload W ...]

For each workload, runs campaignbench/run.py ten times on each of the two
seeds the benchmark fixes (20141105, the default, and 20140301, the
second seed for checking later claims), alternating between them so both
sets see the same host, with tracing off and the run length from
BENCHMARK.json. Because the runs of one set repeat one seed, their spread
is run-to-run noise alone, not a mix of noise and workload variation.

Prints, for each set and end-to-end metric, the median, the quartiles and
the spread: the distance between the first and third quartile as a share
of the median. Then, for each metric, how far the second set's median is
from the first's, as a share of the first. Exits nonzero unless every
spread, setup_s included, stays below a third of the metric's bound and
every shift stays within the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (20141105, 20140301)
RUNS_PER_SEED = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: output check failed" % (workload, seed))
    host = [l for l in out.splitlines() if l.startswith("host.")]
    print("%s seed=%d %s %s" % (workload, seed, " ".join(
        "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()),
        " ".join(host)), flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {seed: {m["name"]: [] for m in bench["end_to_end"]}
                  for seed in SEEDS}
        for _ in range(RUNS_PER_SEED):
            for seed in SEEDS:
                metrics = run_once(workload, seed, bench["run_seconds"])
                for name, series in values[seed].items():
                    series.append(metrics[name])
        medians = {}
        for seed in SEEDS:
            for metric in bench["end_to_end"]:
                name = metric["name"]
                q1, q2, q3 = statistics.quantiles(values[seed][name], n=4)
                spread = (q3 - q1) / q2
                ok = spread < metric["bound"] / 3
                steady = steady and ok
                medians[seed, name] = q2
                print("%-12s seed=%-9d %-18s median=%-12.6g q1=%-12.6g "
                      "q3=%-12.6g spread=%.4f bound/3=%.4f %s" % (
                          workload, seed, name, q2, q1, q3, spread,
                          metric["bound"] / 3, "ok" if ok else "WIDE"),
                      flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first, second = medians[SEEDS[0], name], medians[SEEDS[1], name]
            shift = (second - first) / first
            ok = abs(shift) <= metric["bound"]
            steady = steady and ok
            print("%-12s %-18s median shift seed %d -> %d: %+.4f bound=%.2f %s" % (
                workload, name, SEEDS[0], SEEDS[1], shift, metric["bound"],
                "ok" if ok else "MOVED"), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
