"""Partitioning-strategy interface for the epoch simulator.

Each strategy answers: given a data source with compute budget ``b``
(fraction of one core), a source->SP network allowance ``cap`` (Mbps)
and an offered input rate, what query throughput does it sustain within
the latency bound, how much does it ship, and which load factors does
it run?  Throughput is the paper's metric: Mbps of input processed
within the 5-second latency bound (§VI-A).
"""
from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.cluster.spec import WorkloadSpec


@dataclass(frozen=True)
class Outcome:
    """One strategy evaluation on one data source."""

    strategy: str
    throughput_mbps: float
    traffic_mbps: float
    compute_core: float
    p: np.ndarray


class Strategy(abc.ABC):
    """A query-partitioning policy."""

    name: str = "base"

    @abc.abstractmethod
    def evaluate(
        self, spec: WorkloadSpec, budget_core: float, cap_mbps: float
    ) -> Outcome:
        """Steady-state outcome on one source under (budget, network cap)."""

    def _outcome(
        self,
        spec: WorkloadSpec,
        x_mbps: float,
        p: np.ndarray,
        traffic: float,
        budget_core: float,
    ) -> Outcome:
        return Outcome(
            strategy=self.name,
            throughput_mbps=x_mbps,
            traffic_mbps=traffic,
            compute_core=min(spec.demand_core(x_mbps, p), budget_core),
            p=np.asarray(p, dtype=float),
        )
