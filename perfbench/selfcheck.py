#!/usr/bin/env python3
"""Spark accounting self-test: do two runs of one seed count the same jobs?

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [workload ...]

Runs each Spark workload's traced run twice (separate processes, same
seed) and compares the per-epoch (jobs, stages, tasks) triples that the
job-group accounting recorded, over the epochs both runs reached.
Prints one line per workload and exits 1 when any jobs or stages count
differs. Task counts are reported, not
asserted: adaptive query execution sizes post-shuffle stages from the
data, so they are expected to repeat for one seed but are a property
of Spark, not of the program.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPARK_WORKLOADS = ("t2t_window_sweep", "s2s_live_stream", "experiments_build")


def counts(workload: str, seed: int, seconds: int) -> list[list[int]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{proc.stderr[-2000:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-2])["perfbench"]
    return info["spark_counts_per_epoch"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("workloads", nargs="*", default=list(SPARK_WORKLOADS))
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        a, b = counts(wl, args.seed, args.seconds), counts(wl, args.seed, args.seconds)
        m = min(len(a), len(b))  # a timed workload may fit more epochs in one run
        same_jobs = m > 0 and [x[:2] for x in a[:m]] == [x[:2] for x in b[:m]]
        same_tasks = [x[2] for x in a[:m]] == [x[2] for x in b[:m]]
        ok &= same_jobs
        print(json.dumps({"workload": wl, "epochs": [len(a), len(b)],
                          "jobs_and_stages_repeat": same_jobs, "tasks_repeat": same_tasks,
                          "first": a, "second": b}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
