"""Jarvis strategy: converged data-level partitioning (steady state).

For the throughput tables the simulator evaluates the plan Jarvis'
runtime converges to — the Eq. 3 LP optimum on the *true* (measured)
relay ratios and costs, since §VI-C shows the runtime reaching it within
a handful of one-second epochs.  Unlike the baselines, Jarvis is
network-aware end to end: if the converged plan's drain traffic exceeds
the allowance, the decentralized runtime observes drain-path congestion
and sheds input until feasible (found here by bisection over the
admitted rate — at lower rates the budget covers a larger fraction of
records, so traffic falls superlinearly).

Fig. 3 prints this plan next to the pinned paper plan, and Fig. 11 pins
each query instance to it (:func:`repro.cluster.simulator.multi_query_sweep`).
"""
from __future__ import annotations

import numpy as np

from repro.cluster.spec import WorkloadSpec
from repro.lp.plan_lp import solve_plan
from repro.strategies.base import Outcome, Strategy


class Jarvis(Strategy):
    name = "Jarvis"

    def plan(self, spec: WorkloadSpec, budget_core: float, x_mbps: float) -> np.ndarray:
        """The Eq. 3 LP plan at admitted rate ``x_mbps``."""
        rps = spec.records_per_sec(x_mbps)
        if rps <= 0:
            return np.ones(len(spec.cost_us))
        budget_per_record = budget_core / rps  # seconds per record
        sol = solve_plan(spec.relay, spec.cost_us * 1e-6, budget_per_record)
        return sol.p

    def evaluate(self, spec: WorkloadSpec, budget_core: float, cap_mbps: float) -> Outcome:
        def traffic_at(x: float) -> tuple[float, np.ndarray]:
            p = self.plan(spec, budget_core, x)
            return spec.traffic_mbps(x, p), p

        x = spec.offered_mbps
        traffic, p = traffic_at(x)
        if traffic > cap_mbps:
            # Shed input until the drain traffic fits the allowance.
            lo, hi = 0.0, spec.offered_mbps
            for _ in range(48):
                mid = (lo + hi) / 2.0
                t, _ = traffic_at(mid)
                if t <= cap_mbps:
                    lo = mid
                else:
                    hi = mid
            x = lo
            traffic, p = traffic_at(x)
        return self._outcome(spec, x, p, traffic, budget_core)
