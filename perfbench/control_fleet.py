"""control_fleet: many simulated sources, each a live ``JarvisRuntime``.

No Spark. Each source is a ``JarvisRuntime`` (mode ``jarvis``) over a
``SimulatedEpochExecutor`` with one of the paper's three query shapes
(S2SProbe, T2TProbe or LogAnalytics costs and wire bytes from
``repro.core.costmodel``, relay ratios and epoch sizes as in the T-8
experiment) and a cyclic budget-change schedule. Sources are stepped
round-robin, one epoch at a time (closed loop, one client), so LP
solves, ``FineTuner.next_p`` and ``classify_query`` are nearly all the
work.

One benchmark epoch is one fleet round: every source advances one
epoch. One job is ``SCHEDULE_LEN * max(period)`` rounds, after which
every source has been through its whole budget schedule; whole jobs run
until ``--seconds`` have passed, and at least ``MIN_JOBS``. Only the
time inside ``run_epoch`` is counted (epoch, job and rate metrics); the
per-epoch checks between calls are not.

The seed draws each source's shape, change period and budgets,
stratified per shape (every shape has the same number of sources,
periods spread evenly over ``PERIOD_RANGE``, budgets one per equal
slice of ``BUDGET_RANGE``), so the fleet-wide work mix hardly depends
on the seed while every schedule does.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from common import SETUP_REPS, Phase, median

SOURCES_PER_SHAPE = 160
#: Budget levels a source cycles through (cores), and epochs between changes.
BUDGET_RANGE = (0.05, 1.0)
SCHEDULE_LEN = 4
PERIOD_RANGE = (10, 30)
#: The first job starts from the warm-up plans, later ones from the end of
#: a schedule cycle: a fixed minimum keeps that mix the same in every run,
#: and four jobs (about 10-20 s) average over the host's speed swings.
MIN_JOBS = 4
#: Measured relay ratios per shape (as the T-8 experiment uses them).
RELAY = {
    "s2s": (1.0, 0.86, 0.02),
    "t2t": (1.0, 0.86, 1.0, 1.0, 0.05),
    "log": (1.0, 0.9, 1.0, 0.1),
}


@dataclass
class Source:
    runtime: object
    executor: object
    budgets: np.ndarray
    period: int
    epochs: int = 0
    last_p: np.ndarray | None = None


def _shape(kind: str):
    from repro.core import costmodel as cm

    costs = {"s2s": cm.s2s_costs, "t2t": cm.t2t_costs, "log": cm.log_costs}[kind]()
    rate = cm.log_records_per_sec() if kind == "log" else cm.pingmesh_records_per_sec()
    return costs, np.array(RELAY[kind]), rate * cm.EPOCH_SECONDS


def _build(seed: int) -> tuple[list[Source], float]:
    from repro.core.executor import SimulatedEpochExecutor
    from repro.core.runtime import JarvisRuntime

    t0 = perf_counter()
    rng = np.random.default_rng(seed)
    n = SOURCES_PER_SHAPE
    lo, hi = BUDGET_RANGE
    fleet = []
    for kind in sorted(RELAY):
        costs, relay, records = _shape(kind)
        periods = rng.permutation(np.linspace(*PERIOD_RANGE, n).round().astype(int))
        strata = (np.arange(n * SCHEDULE_LEN) + rng.random(n * SCHEDULE_LEN)) / (n * SCHEDULE_LEN)
        budgets = rng.permutation(lo + (hi - lo) * strata).reshape(n, SCHEDULE_LEN)
        for period, sched in zip(periods, budgets):
            ex = SimulatedEpochExecutor(
                cost_us=np.array(costs.cost_us), relay=relay,
                stage_bytes=np.array(costs.stage_bytes), budget_core=float(sched[0]),
                records_per_epoch=records, group_reduce_idx=(len(relay) - 1,),
            )
            rt = JarvisRuntime(ex, len(relay), mode="jarvis")
            rt.run_until_stable(80)  # warm-up to the first stable plan
            fleet.append(Source(rt, ex, sched, int(period)))
    order = rng.permutation(len(fleet))
    return [fleet[i] for i in order], perf_counter() - t0


def setup(ctx):
    """Build and warm the fleet; set-up time is the median of the repeats."""
    builds = [_build(ctx.seed) for _ in range(SETUP_REPS)]
    return builds[-1][0], median(b[1] for b in builds)


def measure(ctx, fleet: list[Source], tracer, jobs) -> Phase:
    from repro.core import costmodel as cm
    from repro.core.proxy import QueryState

    checks = ctx.checks
    job_rounds = SCHEDULE_LEN * max(src.period for src in fleet)
    epoch_s: list[float] = []
    job_s: list[float] = []
    source_epochs = nonstable = profiles = moves = 0
    records = drained = 0.0
    t0 = perf_counter()
    while len(job_s) < MIN_JOBS or perf_counter() - t0 < ctx.seconds:
        job = 0.0
        for _ in range(job_rounds):
            if tracer is not None:
                tracer.epoch = len(epoch_s)
            busy = 0.0  # time inside run_epoch; the checks below are not timed
            for i, src in enumerate(fleet):
                if src.epochs and src.epochs % src.period == 0:
                    step = src.epochs // src.period
                    src.executor.budget_core = float(src.budgets[step % SCHEDULE_LEN])
                lp_before = ctx.lp_violations
                t = perf_counter()
                rep = src.runtime.run_epoch()
                busy += perf_counter() - t
                src.epochs += 1
                obs = rep.obs
                stable = rep.state is QueryState.STABLE
                budget_s = src.executor.budget_core * src.executor.epoch_s
                ok_p = bool(np.all((rep.p >= 0.0) & (rep.p <= 1.0)))
                ok_flow = float(np.max(np.abs(obs.arrived - obs.processed - obs.drained))) <= 1e-6 * (
                    1.0 + float(obs.arrived[0])
                )
                ok_budget = not stable or (
                    obs.compute_used <= budget_s * (1 + 1e-9)
                    and float(np.max(obs.pending_frac)) <= cm.DRAINED_THRES
                )
                ok_lp = ctx.lp_violations == lp_before
                if ok_p and ok_flow and ok_budget and ok_lp:
                    checks.attempted += 1
                else:
                    checks.unit(
                        (ok_p, f"source {i} epoch {rep.epoch}: p={rep.p} outside [0, 1]"),
                        (ok_flow, f"source {i} epoch {rep.epoch}: arrived != processed + drained"),
                        (ok_budget, f"source {i} epoch {rep.epoch}: stable epoch over its budget"),
                        (ok_lp, f"source {i} epoch {rep.epoch}: LP plan above its compute budget"),
                    )
                records += float(obs.arrived[0])
                drained += float(obs.drained_bytes)
                nonstable += not stable
                profiles += rep.phase.value == "profile"
                moves += src.last_p is not None and not np.array_equal(src.last_p, rep.p)
                src.last_p = rep.p
            source_epochs += len(fleet)
            epoch_s.append(busy)
            job += busy
        job_s.append(job)
    return Phase(
        epoch_s=epoch_s, wall_s=sum(job_s), job_s=median(job_s), records=records,
        drained_bytes=drained, nonstable_frac=nonstable / source_epochs,
        layer={"runtime.profiles": profiles / source_epochs, "stepwise.moves": moves / source_epochs},
    )
