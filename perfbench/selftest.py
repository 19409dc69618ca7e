#!/usr/bin/env python3
"""Determinism self-test for the benchmark.

    python3 perfbench/selftest.py [SEED [OTHER_SEED]]

Runs each workload twice with one seed, in both modes, and
checks that the counts fixed by the stream come out identical: the
snapshot count, WAL bytes per mutation, tasks migrated, load ratio and
placements (and migrations) per submit. Then runs every workload once
with a second seed and checks that it passes its correctness gate.
Run from the root of the repository; exits 1 on any failure.
"""

import json
import subprocess
import sys

WORKLOADS = ["churn-default", "repack-large"]
DETERMINISTIC = {
    0: ["load_ratio", "placements_per_submit"],
    1: ["snapshot.count", "wal.bytes_per_mutation", "core.tasks_migrated",
        "core.migrations_per_submit"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    other = int(sys.argv[2]) if len(sys.argv) > 2 else seed + 1
    failures = []
    for w in WORKLOADS:
        for trace, names in DETERMINISTIC.items():
            a, b = run(w, seed, trace), run(w, seed, trace)
            for n in names:
                va, vb = a["metrics"][n]["value"], b["metrics"][n]["value"]
                status = "same" if va == vb else "DIFFERENT"
                print(f"{w} seed {seed} {n}: {va} / {vb} {status}")
                if va != vb:
                    failures.append(f"{w} {n}")
            if not (a["correct"] and b["correct"]):
                failures.append(f"{w} seed {seed} trace {trace} incorrect")
    for w in WORKLOADS:
        r = run(w, other, 0)
        print(f"{w} seed {other}: correct={r['correct']} failed={r['failed']}")
        if not r["correct"] or r["failed"]:
            failures.append(f"{w} seed {other} failed its correctness gate")
    if failures:
        print("selftest FAILED: " + "; ".join(failures))
        sys.exit(1)
    print("selftest OK")


if __name__ == "__main__":
    main()
