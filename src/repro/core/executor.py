"""Epoch executors: how the Jarvis runtime exercises a query for one epoch.

Two implementations of the same interface:

* :class:`SimulatedEpochExecutor` — cost-model execution used by the
  convergence experiments (T-8). It reproduces the paper's key
  profiling pathology: when the compute budget is too small to push a
  full calibration sample through an expensive operator within one
  epoch, the Profile phase returns *biased* estimates (cost
  underestimated, grouping relay ratio overestimated), which is exactly
  why LP-only fails to converge and Jarvis needs fine-tuning epochs.

* :class:`SparkEpochExecutor` — executes real windows through
  :func:`repro.core.partition_exec.run_partitioned`: round-robin over
  the windows of a trace, or, in its streaming subclass
  (:class:`repro.streaming.pushdown._BatchExecutor`), the current
  micro-batch. Drain counts and relay ratios are the run's own proxy
  counters, so a Profile epoch is an all-drain epoch plus arithmetic;
  compute accounting uses the calibrated per-record model (a shared
  local JVM cannot meter a 1-core budget).

Both turn their per-proxy record counts into an
:class:`EpochObservation` with one function,
:func:`epoch_observation`. It runs once per epoch per query per source,
so it works on Python floats: NumPy's per-call overhead dominates on
arrays of a few elements.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.core import costmodel as cm
from repro.core.operators import window_id
from repro.core.partition_exec import PartitionedRun, drained_bytes, run_partitioned, wire_bytes
from repro.core.pipeline import Pipeline, relay_ratios
from repro.core.proxy import EpochObservation


@dataclass(frozen=True)
class ProfileEstimates:
    """Output of the Profile phase: model inputs for the LP."""

    cost_us: np.ndarray
    relay: np.ndarray
    budget_core: float  # estimated compute budget (fraction of a core)


def planned_flow(
    cur: float, p: list[float], relay: list[float]
) -> tuple[list[float], list[float], list[float]]:
    """Planned record flow through the proxy chain (no budget limits).

    Returns (arrived, forwarded, drained) per operator for ``cur``
    records injected, load factors ``p`` and relay ratios ``relay``.
    """
    arrived, forwarded, drained = [], [], []
    for p_i, r_i in zip(p, relay):
        f = cur * p_i
        arrived.append(cur)
        forwarded.append(f)
        drained.append(cur - f)
        cur = f * r_i
    return arrived, forwarded, drained


def epoch_observation(
    arrived: list[float],
    forwarded: list[float],
    drained: list[float],
    cost_us: list[float],
    budget_s: float,
    wire_bytes: Callable[[list[float]], float],
    *,
    output_rows: float = 0.0,
) -> EpochObservation:
    """Budget, pending and idle accounting of one epoch, shared by every executor.

    ``arrived``, ``forwarded`` and ``drained`` are the epoch's per-proxy
    record counts (planned or measured) as lists of Python floats,
    ``cost_us`` the per-record operator costs and ``budget_s`` the
    epoch's compute budget in core-seconds. When the forwarded records
    need more than the budget, each operator completes the same share of
    its input; the rest is pending and the proxy force-drains it, so it
    counts as drained. ``wire_bytes`` is the executor's byte accounting:
    it maps the drained records per proxy (planned plus force-drained)
    to the epoch's network bytes.

    The sums run left to right from 0.0, which for fewer than 8 terms is
    bit-identical to ``np.sum`` (builtin ``sum`` is compensated on
    Python >= 3.12). An epoch within its budget has nothing pending, so
    it builds no per-proxy scaling lists: its processed counts are the
    forwarded ones and its drained counts are the planned drains.
    """
    demand = 0.0
    for f, c in zip(forwarded, cost_us):
        demand += f * c
    demand_s = demand * 1e-6
    fwd = np.array(forwarded)
    if demand_s <= budget_s or demand_s == 0.0:
        processed = fwd.copy()
        total_drained = drained
        pending_frac = np.zeros(len(forwarded))
    else:
        scale = budget_s / demand_s
        done, total_drained, frac = [], [], []
        for f, d in zip(forwarded, drained):
            q = f * scale
            pending = f - q
            done.append(q)
            total_drained.append(d + pending)
            frac.append(pending / f if f > 0 else 0.0)
        processed = np.array(done)
        pending_frac = np.array(frac)
    util = min(1.0, demand_s / budget_s) if budget_s > 0 else 1.0
    idle_frac = np.empty(len(forwarded))
    idle_frac.fill(1.0 - util)
    return EpochObservation(
        np.array(arrived),
        fwd,
        processed,
        np.array(total_drained),
        pending_frac,
        idle_frac,
        min(demand_s, budget_s),
        wire_bytes(total_drained),
        output_rows,
    )


def measured_observation(
    run: PartitionedRun, pipeline: Pipeline, budget_s: float, drain_overhead: float
) -> EpochObservation:
    """:func:`epoch_observation` of one executed window, from its proxy counters.

    The run processed every forwarded record, so only its planned drains
    shipped bytes; the force-drained overflow is accounting only.
    """
    forwarded = [float(n) for n in run.taken_counts]
    drained = [float(n) for n in run.drained_counts]
    shipped = drained_bytes(run, pipeline, drain_overhead=drain_overhead)
    return epoch_observation(
        [f + d for f, d in zip(forwarded, drained)],
        forwarded,
        drained,
        pipeline.cost_us.tolist(),
        budget_s,
        lambda _: shipped,
        output_rows=float(run.output_rows),
    )


@dataclass
class SimulatedEpochExecutor:
    """Cost-model epoch execution for one data source.

    Attributes:
        cost_us: true per-record operator costs (µs).
        relay: true record relay ratios.
        stage_bytes: wire bytes of a record at each proxy.
        budget_core: compute budget as a fraction of one core (mutable —
            experiments change it to trigger adaptation).
        records_per_epoch: records injected per epoch.
        output_bytes_per_epoch: final aggregate bytes per epoch (adds to
            network, not to drains).
        group_reduce_idx: operator indices whose relay estimate suffers
            the truncated-sample bias (grouping-like operators).
    """

    cost_us: np.ndarray
    relay: np.ndarray
    stage_bytes: np.ndarray
    budget_core: float
    records_per_epoch: float
    output_bytes_per_epoch: float = 0.0
    epoch_s: float = cm.EPOCH_SECONDS
    drain_overhead: float = cm.DRAIN_OVERHEAD
    group_reduce_idx: tuple[int, ...] = ()

    def execute(self, p: np.ndarray) -> EpochObservation:
        """Run one epoch under load factors ``p``."""
        arrived, forwarded, drained = planned_flow(
            float(self.records_per_epoch), p.tolist(), self.relay.tolist()
        )
        return epoch_observation(
            arrived,
            forwarded,
            drained,
            self.cost_us.tolist(),
            self.budget_core * self.epoch_s,
            self._shipped_bytes,
        )

    def _shipped_bytes(self, drained: list[float]) -> float:
        """Drain-path bytes, force-drained records included, plus the output."""
        return (
            wire_bytes(drained, self.stage_bytes.tolist(), self.drain_overhead)
            + self.output_bytes_per_epoch
        )

    def profile(self) -> tuple[ProfileEstimates, EpochObservation]:
        """One Profile epoch: estimate costs, relays and budget.

        The runtime executes "an operator at a time", splitting the
        epoch budget evenly. An operator whose full input sample costs
        more than its share is profiled on a truncated sample:

        * its cost is underestimated by ``cm.PROFILE_ERROR_GAIN * (1 - f)``
          (fixed per-record overheads amortize worse on small samples,
          and the paper observes exactly this under-estimate driving
          LP-only into congestion);
        * a grouping operator's relay ratio is *overestimated* by
          ``cm.RELAY_ERROR_GAIN * (1 - f)`` of its headroom (group count /
          record count rises on truncated samples).

        Profiling consumes the epoch: the query drains everything, so
        this counts as a non-stable epoch in convergence accounting.
        """
        cost = self.cost_us.tolist()
        relay = self.relay.tolist()
        M = len(cost)
        # Input seen by each operator if everything were forwarded.
        full_arrived, _, _ = planned_flow(float(self.records_per_epoch), [1.0] * M, relay)
        share_s = self.budget_core * self.epoch_s / max(M, 1)
        # Share of its full sample each operator profiles within its budget.
        frac = []
        for n, c in zip(full_arrived, cost):
            needed_s = n * c * 1e-6
            frac.append(min(1.0, share_s / needed_s) if needed_s > 0 else 1.0)
        relay_hat = relay.copy()
        for i in self.group_reduce_idx:
            relay_hat[i] = relay[i] + cm.RELAY_ERROR_GAIN * (1.0 - frac[i]) * (1.0 - relay[i])
        est = ProfileEstimates(
            cost_us=np.array(
                [c * (1.0 - cm.PROFILE_ERROR_GAIN * (1.0 - f)) for c, f in zip(cost, frac)]
            ),
            relay=np.array(relay_hat),
            budget_core=self.budget_core,
        )
        obs = self.execute(np.zeros(M))  # profiling epoch drains the stream
        return est, obs


@dataclass
class SparkEpochExecutor:
    """Epoch execution over real data via ``run_partitioned``.

    Each epoch draws the next window (round-robin) from a pre-generated
    trace and executes it under the current load factors; the trace is
    not cached, so each window reads its source again. Relay ratios
    and drain counts are the run's own proxy counters; compute
    accounting uses the calibrated per-record cost model and the
    configured budget. A subclass that feeds other windows overrides
    :meth:`run` only.
    """

    df: DataFrame
    pipeline: Pipeline
    budget_core: float
    seed: int = 0
    #: The latest epoch's run, result and counters.
    last_run: PartitionedRun | None = field(default=None, init=False)
    _windows: list[int] = field(default_factory=list, init=False)
    _epoch_no: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.df = self.df.withColumn("__w", window_id())
        self._windows = [
            r["__w"] for r in self.df.select("__w").distinct().orderBy("__w").collect()
        ]

    def run(self, p: np.ndarray) -> PartitionedRun:
        """The next trace window through the data path under ``p``."""
        w = self._windows[self._epoch_no % len(self._windows)]
        self._epoch_no += 1
        win = self.df.filter(f"__w = {w}").drop("__w")
        return run_partitioned(win, self.pipeline, p, seed=self.seed + self._epoch_no)

    def execute(self, p: np.ndarray) -> EpochObservation:
        """Run one epoch under load factors ``p``."""
        self.last_run = self.run(p)
        return measured_observation(
            self.last_run, self.pipeline, self.budget_core * cm.EPOCH_SECONDS, cm.DRAIN_OVERHEAD
        )

    def profile(self) -> tuple[ProfileEstimates, EpochObservation]:
        """One Profile epoch: drain everything, read relays off its counters.

        Every record passes each stateless operator once whatever ``p``
        is, so the all-drain run counts the same stage totals as an
        unpartitioned pass (:meth:`Pipeline.stage_counts`): the relay
        ratios cost no job of their own.
        """
        obs = self.execute(np.zeros(self.pipeline.n_ops))
        est = ProfileEstimates(
            cost_us=self.pipeline.cost_us,
            relay=relay_ratios(self.last_run.stage_counts),
            budget_core=self.budget_core,
        )
        return est, obs
