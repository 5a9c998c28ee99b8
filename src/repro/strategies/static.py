"""Static partitioning baselines: All-SP, All-Src, Filter-Src (§VI-A).

* **All-SP** (Gigascope): the query runs entirely on the stream
  processor; the source bulk-forwards the raw stream. Throughput is
  network-bound and independent of the source CPU budget.
* **All-Src**: the query runs entirely on the data source; throughput
  degrades linearly once the budget cannot cover the full demand
  (MiNiFi's bounded ingestion queue sheds the excess).
* **Filter-Src** (Everflow): static operator-level partitioning — only
  the prefix up to and including the first filter runs at the source;
  the boundary stream relays wholesale to the SP.
"""
from __future__ import annotations

import numpy as np

from repro.cluster.spec import WorkloadSpec
from repro.strategies.base import Outcome, Strategy

#: Position of the first filter: 1 in all three evaluation queries (W then F).
FILTER_IDX = 1


class AllSP(Strategy):
    name = "All-SP"

    def evaluate(self, spec: WorkloadSpec, budget_core: float, cap_mbps: float) -> Outcome:
        p = np.zeros(len(spec.cost_us))
        x = min(spec.offered_mbps, cap_mbps)
        return self._outcome(spec, x, p, spec.traffic_mbps(x, p), budget_core)


class AllSrc(Strategy):
    name = "All-Src"

    def evaluate(self, spec: WorkloadSpec, budget_core: float, cap_mbps: float) -> Outcome:
        p = np.ones(len(spec.cost_us))
        demand = spec.full_demand_core(spec.offered_mbps)
        x = spec.offered_mbps * min(1.0, budget_core / demand) if demand > 0 else spec.offered_mbps
        traffic = spec.traffic_mbps(x, p)
        x = min(x, spec.offered_mbps * min(1.0, cap_mbps / traffic) if traffic > 0 else x)
        return self._outcome(spec, x, p, spec.traffic_mbps(x, p), budget_core)


class FilterSrc(Strategy):
    """Run operators up to and including the first filter on the source."""

    name = "Filter-Src"

    def evaluate(self, spec: WorkloadSpec, budget_core: float, cap_mbps: float) -> Outcome:
        M = len(spec.cost_us)
        p = np.zeros(M)
        p[: FILTER_IDX + 1] = 1.0
        demand = spec.demand_core(spec.offered_mbps, p)
        x = spec.offered_mbps * min(1.0, budget_core / demand) if demand > 0 else spec.offered_mbps
        traffic_unit = spec.traffic_mbps(x, p, bulk_boundary=True)
        if traffic_unit > cap_mbps and traffic_unit > 0:
            x = x * cap_mbps / traffic_unit
        return self._outcome(
            spec, x, p, spec.traffic_mbps(x, p, bulk_boundary=True), budget_core
        )
