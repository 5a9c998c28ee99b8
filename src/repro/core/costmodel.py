"""Calibrated performance-model constants for the Jarvis reproduction.

The paper's testbed (EC2 t2.micro data sources, MiNiFi/NiFi/RxJava) is
replaced by an epoch simulator.  Data-dependent quantities (selectivity,
relay ratios, group counts) are measured from real Spark executions of
the synthetic traces; the constants below supply everything else and
each is calibrated against a number *stated in the paper* (quoted in the
docstrings/comments).  See DESIGN.md §6.

Units: costs are microseconds of a single 2.4 GHz core per record;
rates are Mbps; record sizes are bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

# --- Record sizes (paper §II-B / §VI-A) -------------------------------------
PROBE_RECORD_BYTES = 86  # "A record is 86B in size" (Pingmesh)
LOG_LINE_BYTES = 128  # ~0.62 MBps/server at the reported per-line content
PARSED_LOG_BYTES = 40  # structured JobStats record after the Map/parse op
T2T_JOINED_BYTES = 98  # probe + src/dst ToR ids before projection
T2T_PROJECTED_BYTES = 24  # (src_tor, dst_tor, rtt) after projection
AGG_ROW_BYTES = 48  # one (keys + count/sum/min/max) aggregate row

# --- Input rates (paper §VI-A, already including the 10x scale-up) ----------
PINGMESH_RATE_MBPS_10X = 26.2  # "26.2 Mbps for Pingmesh ... per node"
LOG_RATE_MBPS_10X = 49.6  # "49.6 Mbps for LogAnalytics per node"

# --- Network (paper §VI-A) ---------------------------------------------------
PER_QUERY_CAP_MBPS = 20.48  # 2.048 Mbps/query/source, "scale up ... by 10x"
AGG_LINK_MBPS = 460.0  # ~10 Gbps SP NIC / 20 queries, ~8% protocol overhead
#                        (T-10; with this value Best-OP saturates exactly at
#                        the paper's 40 sources at 5x rate and the latency
#                        model lands on the paper's 0.5 s / 1.8 s medians)
DRAIN_OVERHEAD = 1.2  # Kryo per-record framing + operator id + replicated
#                       watermarks on the drain path (§V); bulk stage-0
#                       forwarding pays no per-record framing.

# --- Runtime knobs (paper §IV-C / §VI-C) -------------------------------------
EPOCH_SECONDS = 1.0  # "setting epoch duration to one second"
DETECT_EPOCHS = 3  # "three epochs are required to detect that compute
#                     budget has changed" (hysteresis against noise)
DRAINED_THRES = 0.10  # tolerated drained fraction before signalling congested
IDLE_THRES = 0.10  # tolerated idle fraction of the epoch before signalling idle
P_GRID = 16  # load factors discretized to 1/16 steps for binary search

# --- Truncated-sample profiling bias (SimulatedEpochExecutor.profile) --------
PROFILE_ERROR_GAIN = 0.5
"""Cost underestimate per unit of unprofiled sample: an operator that sees a
fraction ``f`` of its Profile input reports
``cost * (1 - PROFILE_ERROR_GAIN * (1 - f))`` (fixed per-record overheads
amortize worse on small samples; the paper's LP-only runs congest on
exactly this under-estimate, §VI-C)."""
RELAY_ERROR_GAIN = 1.0
"""Grouping relay-ratio overestimate per unit of unprofiled sample: a
fraction ``f`` raises the ratio by ``RELAY_ERROR_GAIN * (1 - f)`` of its
headroom to 1 (group count over record count rises on truncated samples)."""


def pingmesh_records_per_sec(scale: float = 10.0) -> float:
    """Probe records/second/source at a given input scaling (10x = 26.2 Mbps)."""
    return PINGMESH_RATE_MBPS_10X * 1e6 / 8.0 / PROBE_RECORD_BYTES * (scale / 10.0)


def log_records_per_sec(scale: float = 10.0) -> float:
    """Log lines/second/source at a given input scaling (10x = 49.6 Mbps)."""
    return LOG_RATE_MBPS_10X * 1e6 / 8.0 / LOG_LINE_BYTES * (scale / 10.0)


def join_cost_us(table_size: int) -> float:
    """Per-record cost of the T2T join operator vs. static-table size.

    Calibrated so the full T2TProbe query needs ~1.76 cores at the 10x
    rate with a 500-entry table ("compute resource requirements exceed
    one core"; All-Src trails Jarvis 4.4x at 40% CPU). Hash-lookup cost
    grows mildly with table size (cache pressure); a 10x larger table
    must push a previously-stable plan into congestion (Fig. 8b).
    """
    return 39.0 * (1.0 + 0.25 * math.log10(max(table_size, 1) / 500.0))


@dataclass(frozen=True)
class QueryCosts:
    """Per-record operator costs (µs) and per-stage record sizes (bytes).

    ``stage_bytes[i]`` is the wire size of one record arriving at
    operator ``i`` (i.e. what a drain at proxy ``i`` ships, before the
    drain-path overhead); ``output_bytes`` is the size of one final
    aggregate row.
    """

    name: str
    cost_us: tuple[float, ...]
    stage_bytes: tuple[float, ...]
    output_bytes: float = AGG_ROW_BYTES


def s2s_costs() -> QueryCosts:
    """S2SProbe: W -> F -> G+R.

    F = 13% of a core at the full 10x rate ("its compute cost is just
    13%"); total ~85% ("requires nearly 85% CPU to execute entirely").
    """
    return QueryCosts(
        name="s2s",
        cost_us=(0.2, 3.4, 22.0),
        stage_bytes=(PROBE_RECORD_BYTES,) * 3,
    )


def t2t_costs(table_size: int = 500) -> QueryCosts:
    """T2TProbe: W -> F -> J -> P -> G+R (join with ip->ToR table)."""
    return QueryCosts(
        name="t2t",
        cost_us=(0.2, 3.4, join_cost_us(table_size), 0.5, 10.7),
        stage_bytes=(
            PROBE_RECORD_BYTES,
            PROBE_RECORD_BYTES,
            PROBE_RECORD_BYTES,
            T2T_JOINED_BYTES,
            T2T_PROJECTED_BYTES,
        ),
        output_bytes=T2T_PROJECTED_BYTES + 24,
    )


def log_costs() -> QueryCosts:
    """LogAnalytics: W -> F -> M(parse) -> G+R (histogram).

    Total ~30% of a core at the 10x rate ("uses 31% CPU to process the
    input at 49.6 Mbps"); the parse M dominates and shrinks bytes ~3x.
    """
    return QueryCosts(
        name="log",
        cost_us=(0.1, 1.0, 3.5, 2.1),
        stage_bytes=(
            LOG_LINE_BYTES,
            LOG_LINE_BYTES,
            LOG_LINE_BYTES,
            PARSED_LOG_BYTES,
        ),
        output_bytes=PARSED_LOG_BYTES,
    )


@dataclass(frozen=True)
class LatencyModel:
    """Heuristic epoch-latency model for the T-10 latency claims.

    Median grows quadratically with network utilisation rho (an M/M/1-
    flavoured fit through the paper's 500 ms @ low rho and 1800 ms @
    rho~1 points); max is 4x the median while the link keeps up and is
    reported as saturated (>60 s, unbounded backlog) once rho >= 1.
    """

    base_s: float = 0.3
    quad_s: float = 1.6
    max_factor: float = 4.0
    saturated_s: float = 60.0

    def median_s(self, rho: float) -> float:
        if rho >= 1.0:
            return self.saturated_s
        return self.base_s + self.quad_s * rho * rho

    def max_s(self, rho: float) -> float:
        if rho >= 1.0:
            return self.saturated_s
        return self.max_factor * self.median_s(rho)


DEFAULT_LATENCY = LatencyModel()
