#!/usr/bin/env python3
"""Smoke test of the campaign benchmark itself.

    python3 campaignbench/smoke_test.py

Runs both workloads at smoke size (a few hundred experiments, one second
each) with tracing off and on, and checks that:
  * the last line of output is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every metric BENCHMARK.json names is printed with its unit, as a
    finite number;
  * the output checks passed, and the export digest of the traced process
    equals that of the untraced one;
  * the per-layer counts repeat exactly in a second traced process;
  * without the simulator sources next to it, the benchmark exits nonzero
    and prints no result.
Exits nonzero on the first failed check.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "campaignbench/run.py"] + args,
                          cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)


def fail(message):
    sys.exit("smoke_test: FAIL: " + message)


def result_of(workload, trace, seed=7):
    proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "smoke"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s trace=%d: result keys %s" % (workload, trace, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: output check failed" % (workload, trace))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s trace=%d: attempted %r" % (workload, trace, result["attempted"]))
    digest = re.search(r"\bdigest=([0-9a-f]{16})\b", proc.stdout)
    if not digest:
        fail("%s trace=%d: no export digest printed" % (workload, trace))
    return result["metrics"], digest.group(1)


def check_metrics(workload, printed, expected):
    for metric in expected:
        entry = printed.get(metric["name"])
        if entry is None:
            fail("%s: metric %s not printed" % (workload, metric["name"]))
        if entry["unit"] != metric["unit"]:
            fail("%s: %s printed in %s, not %s" % (
                workload, metric["name"], entry["unit"], metric["unit"]))
        if not isinstance(entry["value"], (int, float)) or \
                not math.isfinite(entry["value"]):
            fail("%s: %s = %r" % (workload, metric["name"], entry["value"]))
    extra = set(printed) - {m["name"] for m in expected}
    if extra:
        fail("%s: metrics not in BENCHMARK.json: %s" % (workload, sorted(extra)))


def is_exact_count(metric):
    return metric["unit"] in ("count", "count/exp") or \
        metric["name"].endswith("_hit_ratio")


def check_bare_checkout():
    """In a directory holding only BENCHMARK.json and campaignbench/."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "campaignbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = run(["--workload", "paper_repro", "--seed", "1", "--seconds",
                    "1", "--trace", "0"], cwd=bare, env=env)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("bare checkout: exit %d, stdout %r" % (proc.returncode,
                                                        proc.stdout))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        end_to_end, digest_untraced = result_of(workload, trace=0)
        check_metrics(workload, end_to_end, bench["end_to_end"])
        per_layer, digest_traced = result_of(workload, trace=1)
        check_metrics(workload, per_layer, bench["per_layer"])
        if digest_traced != digest_untraced:
            fail("%s: traced digest %s != untraced %s" % (
                workload, digest_traced, digest_untraced))
        again, _ = result_of(workload, trace=1)
        for metric in filter(is_exact_count, bench["per_layer"]):
            name = metric["name"]
            if again[name]["value"] != per_layer[name]["value"]:
                fail("%s: count %s differs between processes: %r vs %r" % (
                    workload, name, per_layer[name]["value"],
                    again[name]["value"]))
        print("smoke_test: %s ok (digest %s)" % (workload, digest_untraced))
    check_bare_checkout()
    print("smoke_test: bare checkout fails without a result, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
