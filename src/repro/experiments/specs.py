"""Shared workload-spec construction for the experiments.

Relay ratios and output sizes are *measured* from Spark executions of
the synthetic traces (the oracle-checked pipelines); costs come from the
calibrated model.  One moderate-size trace per query is enough — relay
ratios are rate-independent (per-record probabilities).

A spec is a deterministic function of its seeded trace, so each one is
measured once per ``(session, arguments)`` and shared by every table
after that. The store is keyed weakly on the session: a new session
(for example after ``spark.stop()``) measures again.
"""
from __future__ import annotations

import weakref
from typing import Callable

from pyspark.sql import SparkSession

from repro.core import costmodel as cm
from repro.cluster.spec import WorkloadSpec, measure_spec
from repro.workloads.queries import log_query, s2s_query, t2t_query

#: session -> {(query, arguments): measured spec}.
_MEASURED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _once(spark: SparkSession, key: tuple, measure: Callable[[], WorkloadSpec]) -> WorkloadSpec:
    """The session's spec for ``key``, measured on the first call only."""
    specs = _MEASURED.setdefault(spark, {})
    if key not in specs:
        spec = measure()
        # Every later caller shares this object: freeze its arrays.
        for a in (spec.cost_us, spec.relay, spec.stage_bytes):
            a.flags.writeable = False
        specs[key] = spec
    return specs[key]


def s2s_spec(spark: SparkSession, *, scale: float = 10.0) -> WorkloadSpec:
    def measure() -> WorkloadSpec:
        # Probe density tracks the rate scale: at 10x, ~20 probes per pair
        # per window over a fixed pair population (see pingmesh_trace).
        b = s2s_query(spark, n_sources=4, peers_per_source=60, n_windows=3,
                      probes_per_pair_per_window=max(2, int(2 * scale)))
        return measure_spec(b, cm.s2s_costs(), cm.PINGMESH_RATE_MBPS_10X * scale / 10.0)

    return _once(spark, ("s2s", scale), measure)


def t2t_spec(
    spark: SparkSession, *, table_size: int = 500, scale: float = 10.0
) -> WorkloadSpec:
    def measure() -> WorkloadSpec:
        b = t2t_query(
            spark, n_sources=4, peers_per_source=60, n_windows=3, table_size=table_size,
            probes_per_pair_per_window=max(2, int(2 * scale)),
        )
        return measure_spec(
            b, cm.t2t_costs(table_size), cm.PINGMESH_RATE_MBPS_10X * scale / 10.0
        )

    return _once(spark, ("t2t", table_size, scale), measure)


def log_spec(spark: SparkSession, *, scale: float = 10.0) -> WorkloadSpec:
    def measure() -> WorkloadSpec:
        b = log_query(spark, n_sources=4, lines_per_source_window=150, n_windows=3)
        return measure_spec(b, cm.log_costs(), cm.LOG_RATE_MBPS_10X * scale / 10.0)

    return _once(spark, ("log", scale), measure)


def all_strategies():
    from repro.strategies.best_op import BestOp
    from repro.strategies.jarvis import Jarvis
    from repro.strategies.lb_dp import LoadBalanceDP
    from repro.strategies.static import AllSP, AllSrc, FilterSrc

    return [AllSP(), AllSrc(), FilterSrc(), BestOp(), LoadBalanceDP(), Jarvis()]
