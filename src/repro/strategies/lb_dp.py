"""LB-DP: coarse-grained *query-level* data partitioning (M3-style, §VI-A).

The input stream is split between the data source and the stream
processor "proportional to available compute on the nodes": the source
runs the whole query on a share ``s = b / (b + B)`` of the input and
bulk-forwards the remaining raw records, where ``B`` is the SP compute
share backing this query (the SP node is far larger than a t2.micro
source, so ``s`` is small and LB-DP ships most of the input — the
network-heavy behaviour the paper reports: "LB-DP generates higher
amounts of network traffic compared to Jarvis since its goal is to
balance the compute load").
"""
from __future__ import annotations

import numpy as np

from repro.cluster.spec import WorkloadSpec
from repro.strategies.base import Outcome, Strategy

#: SP compute share per query (cores) — calibration constant,
#: DESIGN.md §6.
SP_SHARE_CORES = 4.0


class LoadBalanceDP(Strategy):
    name = "LB-DP"

    def evaluate(self, spec: WorkloadSpec, budget_core: float, cap_mbps: float) -> Outcome:
        M = len(spec.cost_us)
        s = budget_core / (budget_core + SP_SHARE_CORES)
        # The source cannot take more than its compute sustains.
        demand_full = spec.full_demand_core(spec.offered_mbps)
        if demand_full > 0:
            s = min(s, budget_core / demand_full)
        # Query-level split = a single load factor at the first proxy.
        p = np.ones(M)
        p[0] = s
        traffic = spec.traffic_mbps(spec.offered_mbps, p)
        x = spec.offered_mbps
        if traffic > cap_mbps and traffic > 0:
            x = spec.offered_mbps * cap_mbps / traffic
        return self._outcome(spec, x, p, spec.traffic_mbps(x, p), budget_core)
