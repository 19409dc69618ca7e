#!/usr/bin/env python3
"""Benchmark entry point: build `pmp` and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The last line of standard output is
the JSON result; see BENCHMARK.json for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["churn-default", "repack-large"]
WORK_DIR = ".perfbench-work"


def in_tmpfs(mount_point, cmd):
    """`cmd`, run in new user and mount namespaces with a tmpfs on `mount_point`."""
    return ["unshare", "--user", "--map-root-user", "--mount", "--",
            "sh", "-c", 'mount -t tmpfs -o size=512m perfbench "$0" && exec "$@"',
            mount_point] + cmd


def tmpfs_works(mount_point):
    try:
        probe = subprocess.run(in_tmpfs(mount_point, ["true"]),
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except OSError:
        return False
    return probe.returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "bin/pmp.ml", "lib", "perfbench/main.ml"):
        if not os.path.exists(needed):
            sys.exit(f"perfbench: {needed} not found; run from the root of the repository")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/pmp.exe", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    work = os.path.join(WORK_DIR, args.workload)
    mem = os.path.join(work, "mem")
    os.makedirs(mem, exist_ok=True)
    cmd = ["_build/default/perfbench/main.exe",
           "--pmp", "_build/default/bin/pmp.exe",
           "--work", work,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The daemons keep their state under <work>/mem. Where the host allows
    # it, that is a tmpfs in a mount namespace of the benchmark's own: on
    # the checkout's disk, other tenants' disk traffic sets fsync latency
    # and with it throughput and latency. The tmpfs is seen by this run
    # alone and is gone when it ends; nothing is written outside the
    # checkout. Without it the run keeps the state on disk, and the host
    # line of the output names the file system either way.
    if tmpfs_works(mem):
        cmd = in_tmpfs(mem, cmd)
    else:
        print("perfbench: no private tmpfs on this host; state stays on disk", file=sys.stderr)
    bench = subprocess.Popen(cmd)

    def forward(signum, _frame):
        bench.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    sys.exit(bench.wait())


if __name__ == "__main__":
    main()
