"""Shared pieces: run context, correctness checks, phase results, statistics."""
from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Patches

#: Repeats of the cheap, repeatable set-up steps; set-up time takes their median.
SETUP_REPS = 3
#: The ``repro.experiments`` modules the EXPERIMENTS.md build runs, in order.
FIGURES = ("fig3", "fig7", "fig8", "opcount", "fig9", "fig10", "fig11")


@dataclass
class Checks:
    """Units of work (epochs, builds, reference checks) and those that failed.

    A unit fails when any of its checks fails; ``failed / attempted`` is
    the run's error rate.
    """

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def unit(self, *checks: tuple[bool, str]) -> None:
        """Count one unit; ``checks`` are (passed, what-failed) pairs."""
        problems = [what for ok, what in checks if not ok]
        self.attempted += 1
        if problems:
            self.failed += 1
            for what in problems:
                if len(self.messages) < 20:
                    self.messages.append(what)
                print(f"perfbench: check failed: {what}", file=sys.stderr)


@dataclass
class Ctx:
    root: Path
    run_dir: Path
    seed: int
    seconds: int
    checks: Checks = field(default_factory=Checks)
    spark: object = None
    #: Taps that stay installed for the whole run (result capture, checks).
    patches: Patches = field(default_factory=Patches)
    #: LP plans seen whose predicted compute exceeds their budget.
    lp_violations: int = 0


@dataclass
class Phase:
    """What one measured phase (untraced or traced) saw.

    ``epoch_s`` holds one sample per epoch; ``records`` and
    ``drained_bytes`` are totals over the phase; ``job_s`` is the time of
    the workload's unit job (see WORKLOADS.md); ``layer`` holds per-layer
    values only the workload can compute.
    """

    epoch_s: list[float]
    wall_s: float
    job_s: float
    records: float
    drained_bytes: float
    nonstable_frac: float
    layer: dict[str, float] = field(default_factory=dict)
    #: Per-epoch (jobs, stages, tasks) when Spark accounting was on.
    spark_counts: list[tuple[int, int, int]] = field(default_factory=list)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest of p90, p99, p99.9, p99.99 with
    at least ten samples above it; the maximum (percentile 100) when
    fewer than 100 samples leave no such percentile.
    """
    s = sorted(samples)
    n = len(s)
    for q in (99.99, 99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return s[min(n - 1, int(math.ceil(q / 100.0 * n)) - 1)], q, n
    return s[-1], 100.0, n


def median(xs) -> float:
    return float(statistics.median(xs))


def rows_match(got: list[tuple], want: list[tuple]) -> bool:
    """Equal row multisets; floats compared to 1e-9 relative (merge order)."""
    if len(got) != len(want):
        return False
    for a, b in zip(sorted(got, key=_key), sorted(want, key=_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def _key(row: tuple) -> tuple:
    # Group keys (the non-float columns) first: they identify a row exactly.
    return (
        tuple(v for v in row if not isinstance(v, float)),
        tuple(round(v, 6) for v in row if isinstance(v, float)),
    )


def conservation_violations(run, window_records: int) -> int:
    """Proxy counters that lose or invent records in one partitioned run.

    Stage 0: taken + drained equals the window. Stage i: taken + drained
    is at most what stage i-1 took (operators only drop records here).
    """
    taken, drained = run.taken_counts, run.drained_counts
    bad = int(taken[0] + drained[0] != window_records)
    for i in range(1, len(taken)):
        bad += int(taken[i] + drained[i] > taken[i - 1] or taken[i] < 0 or drained[i] < 0)
    return bad


def budget_violation(args, kwargs, sol) -> bool:
    """True when a ``solve_plan`` result uses more compute than its budget."""
    budget = kwargs.get("budget_per_record", args[2] if len(args) > 2 else None)
    return sol.compute_per_record > budget * (1.0 + 1e-6) + 1e-15


#: Operators reported per stage (T2TProbe, the longest pipeline, has five).
MAX_OPS = 5


class RunStats:
    """Proxy counters of the partitioned runs of one phase."""

    def __init__(self) -> None:
        self.drained = [0] * MAX_OPS
        self.sp_input = 0
        self.partial_rows = 0
        self.violations = 0

    def add(self, run, window_records: int) -> int:
        """Fold one run in; returns its conservation violations."""
        for i, d in enumerate(run.drained_counts):
            self.drained[i] += d
        self.sp_input += sum(run.sp_input_counts)
        self.partial_rows += run.source_partial_rows
        bad = conservation_violations(run, window_records)
        self.violations += bad
        return bad

    def layer(self, epochs: int) -> dict[str, float]:
        per = 1.0 / max(epochs, 1)
        out = {f"partition_exec.drained_records.op{i}": d * per for i, d in enumerate(self.drained)}
        out["partition_exec.sp_input_records"] = self.sp_input * per
        out["partition_exec.source_partial_rows"] = self.partial_rows * per
        out["partition_exec.conservation_violations"] = float(self.violations)
        return out


def spark_layer(counts: list[tuple[int, int, int]]) -> dict[str, float]:
    """Mean Spark jobs, stages and tasks per epoch, and total jobs."""
    if not counts:
        return {}
    n = len(counts)
    return {
        "spark.jobs_per_epoch": sum(c[0] for c in counts) / n,
        "spark.stages_per_epoch": sum(c[1] for c in counts) / n,
        "spark.tasks_per_epoch": sum(c[2] for c in counts) / n,
        "spark.jobs": float(sum(c[0] for c in counts)),
    }
