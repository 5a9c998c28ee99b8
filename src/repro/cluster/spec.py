"""Workload specification consumed by the epoch simulator.

A :class:`WorkloadSpec` bundles what the performance model needs about
one query: calibrated per-record operator costs (from
``repro.core.costmodel``) and *measured* data-dependent quantities
(relay ratios, output size), which are extracted from a real Spark
execution of the synthetic trace via :func:`measure_spec`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core import costmodel as cm
from repro.core.executor import planned_flow
from repro.core.partition_exec import wire_bytes
from repro.core.pipeline import relay_ratios


@dataclass(frozen=True)
class WorkloadSpec:
    """Performance-model view of one query on one data source.

    Attributes:
        name: query name.
        cost_us: per-record operator costs (µs of one core).
        relay: record-count relay ratio per operator (measured).
        stage_bytes: wire bytes of a record at each proxy.
        record_bytes: input record size (stage 0).
        output_bytes_per_record: final aggregate bytes shipped per input
            record (measured output rows x row size / input records).
        offered_mbps: offered input rate.
    """

    name: str
    cost_us: np.ndarray
    relay: np.ndarray
    stage_bytes: np.ndarray
    record_bytes: float
    output_bytes_per_record: float
    offered_mbps: float

    # -- conversions -----------------------------------------------------------
    def records_per_sec(self, x_mbps: float) -> float:
        return x_mbps * 1e6 / 8.0 / self.record_bytes

    def unit_demand_us(self, p: np.ndarray) -> float:
        """Compute cost per injected record (µs) under load factors p.

        Summed left to right from 0.0, as in
        :func:`~repro.core.executor.epoch_observation`.
        """
        _, fwd, _ = planned_flow(
            1.0, np.asarray(p, dtype=float).tolist(), self.relay.tolist()
        )
        demand = 0.0
        for f, c in zip(fwd, self.cost_us.tolist()):
            demand += f * c
        return demand

    def full_demand_core(self, x_mbps: float) -> float:
        """Cores needed to run the whole query locally at rate x."""
        return self.unit_demand_us(np.ones(len(self.cost_us))) * 1e-6 * self.records_per_sec(x_mbps)

    def demand_core(self, x_mbps: float, p: np.ndarray) -> float:
        return self.unit_demand_us(p) * 1e-6 * self.records_per_sec(x_mbps)

    def traffic_mbps(self, x_mbps: float, p: np.ndarray, *, bulk_boundary: bool = False) -> float:
        """Source->SP network rate under load factors ``p`` at rate ``x``.

        Drains are priced by :func:`~repro.core.partition_exec.wire_bytes`:
        stage 0 is a bulk forward, deeper drains pay
        ``cm.DRAIN_OVERHEAD`` — unless ``bulk_boundary`` is set, which
        models *operator-level* partitioning (the entire boundary stream
        relays wholesale, e.g. Filter-Src / Best-OP / Fig. 3's coarse
        plan). Final aggregates ship whenever the terminal operator
        processes anything locally.
        """
        p = np.asarray(p, dtype=float).tolist()
        rps = self.records_per_sec(x_mbps)
        _, _, drained = planned_flow(rps, p, self.relay.tolist())
        bytes_per_sec = wire_bytes(
            drained, self.stage_bytes.tolist(), 1.0 if bulk_boundary else cm.DRAIN_OVERHEAD
        )
        if p[-1] > 0:
            bytes_per_sec += self.output_bytes_per_record * rps
        return bytes_per_sec * 8.0 / 1e6

    def with_offered(self, offered_mbps: float) -> "WorkloadSpec":
        return replace(self, offered_mbps=offered_mbps)

    def with_rate_scale(self, factor: float) -> "WorkloadSpec":
        """Rescale the offered rate, keeping the group population fixed.

        Pingmesh rate scaling changes probe *frequency*, not the pair
        population, so aggregate output per window is constant and the
        output bytes per input record scale inversely with the rate.
        """
        return replace(
            self,
            offered_mbps=self.offered_mbps * factor,
            output_bytes_per_record=self.output_bytes_per_record / factor,
        )


# --------------------------------------------------------------------------
def spec_from_costs(costs: cm.QueryCosts, relay: np.ndarray,
                    output_bytes_per_record: float, offered_mbps: float) -> WorkloadSpec:
    """Assemble a spec from calibrated costs + measured data quantities."""
    return WorkloadSpec(
        name=costs.name,
        cost_us=np.asarray(costs.cost_us, dtype=float),
        relay=np.asarray(relay, dtype=float),
        stage_bytes=np.asarray(costs.stage_bytes, dtype=float),
        record_bytes=float(costs.stage_bytes[0]),
        output_bytes_per_record=output_bytes_per_record,
        offered_mbps=offered_mbps,
    )


def measure_spec(bundle, costs: cm.QueryCosts, offered_mbps: float) -> WorkloadSpec:
    """Measure relay ratios and output size from a real Spark execution.

    ``bundle`` is a :class:`repro.workloads.queries.QueryBundle`; the
    pipeline runs once over the synthetic trace, and group cardinality /
    selectivity feed the simulator — the paper's Profile phase, done
    offline and exactly.
    """
    counts = bundle.pipeline.stage_counts(bundle.input_df)
    out_bpr = costs.output_bytes * counts[-1] / max(counts[0], 1)
    return spec_from_costs(costs, relay_ratios(counts), out_bpr, offered_mbps)
