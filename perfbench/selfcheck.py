#!/usr/bin/env python3
"""The benchmark's self-check.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it makes one short run with
--trace 0 and one with --trace 1, and checks that

- the run passes and prints a result as its last line;
- the result names exactly the end_to_end (resp. per_layer) metrics
  of BENCHMARK.json, each with the unit listed there;
- every metric name matches [A-Za-z0-9_.-]+.

Then it makes one run whose first operation's document is deliberately
corrupted (--corrupt 0) and checks that the failure is counted: the
result says correct false with failed >= 1, and the exit code is not 0.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in [n for names in expected.values() for n in names]:
        if not NAME.fullmatch(name):
            problems.append(f"metric name {name!r} does not match {NAME.pattern}")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            code, result = run(workload, trace)
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{tag}: run failed (exit {code})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got
                               if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, "
                                f"wrong units {units}")
            print(f"ok  {tag}: {len(got)} metrics", flush=True)
    code, result = run(workloads[0], 0, "--corrupt", "0")
    if code == 0 or not result or result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted document not counted as failed: "
                        f"exit {code}, result {result}")
    else:
        print(f"ok  corrupted document counted: failed {result['failed']} "
              f"of {result['attempted']}", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
