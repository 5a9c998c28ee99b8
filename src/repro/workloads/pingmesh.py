"""Synthetic Pingmesh probe trace (paper §II-B, §VI-A).

Each record models one latency probe between a server pair: 86 bytes of
timestamp, source/destination IP + cluster ids, round-trip time (µs)
and an error code.  Calibration to the paper:

* 14% of records fail the ``err_code == 0`` filter ("The filter
  predicate delivers 14% filter-out rate");
* each pair is probed every 5 s, i.e. twice per 10-s window;
* network issues appear as sparse high-latency spikes (5–50 ms against
  a sub-ms baseline) on a small fraction of pairs — the anomalies that
  make lossy sampling miss alerts (Fig. 9).

IPs live in a fixed domain of ``IP_DOMAIN`` servers so that the T2T
static ip→ToR table (size 500 by default) always covers the streams.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.operators import WINDOW_S

#: Server-IP domain (paper's T2T table maps 500 servers).
IP_DOMAIN = 500
#: Servers per top-of-rack switch in the synthetic topology.
SERVERS_PER_TOR = 20
#: Probing interval (s) -> probes per pair per 10-s window.
PROBE_INTERVAL_S = 5

#: Fraction of records with a non-zero error code (filter-out rate).
ERR_RATE = 0.14
#: Fraction of server pairs undergoing a network issue.
ANOMALY_PAIR_FRAC = 0.02
#: Probability an anomalous pair spikes in a given window (issues last
#: 40-60 s out of the trace, §II-B).
ANOMALY_WINDOW_PROB = 0.5
#: Spike RTT range in µs (alert threshold in the paper is 5 ms).
ANOMALY_RTT_US = (5_000.0, 50_000.0)


def pingmesh_trace(
    spark: SparkSession,
    *,
    n_sources: int = 4,
    peers_per_source: int = 40,
    n_windows: int = 3,
    probes_per_pair_per_window: int = 2,
    err_rate: float = ERR_RATE,
    anomaly_pair_frac: float = ANOMALY_PAIR_FRAC,
    seed: int = 7,
) -> DataFrame:
    """Generate a probe trace as a Spark DataFrame.

    Columns: ``record_id, source_id, ts_s, src_ip, src_cluster, dst_ip,
    dst_cluster, rtt_us, err_code``. Deterministic in ``seed``.

    ``probes_per_pair_per_window`` is 2 at the dataset's base rate (one
    probe per pair every 5 s); the paper's 10x rate scaling multiplies
    probe *frequency* while the pair population stays fixed, so a
    10x-rate trace uses ~20 — this is what makes the G+R relay ratio
    tiny at high rates (groups are pairs, not records).
    """
    pdf = pingmesh_trace_pandas(
        n_sources=n_sources,
        peers_per_source=peers_per_source,
        n_windows=n_windows,
        probes_per_pair_per_window=probes_per_pair_per_window,
        err_rate=err_rate,
        anomaly_pair_frac=anomaly_pair_frac,
        seed=seed,
    )
    return spark.createDataFrame(pdf)


def pingmesh_trace_pandas(
    *,
    n_sources: int = 4,
    peers_per_source: int = 40,
    n_windows: int = 3,
    probes_per_pair_per_window: int = 2,
    err_rate: float = ERR_RATE,
    anomaly_pair_frac: float = ANOMALY_PAIR_FRAC,
    seed: int = 7,
) -> pd.DataFrame:
    """Pandas variant (used directly by the DuckDB oracle and by WSP)."""
    if n_sources > IP_DOMAIN:
        raise ValueError(f"at most {IP_DOMAIN} sources fit the IP domain")
    g = np.random.default_rng(seed)
    probes_per_window = probes_per_pair_per_window

    src = np.repeat(np.arange(n_sources), peers_per_source)
    # Peer sets: deterministic spread over the IP domain, distinct from
    # the prober itself.
    peer_idx = np.tile(np.arange(peers_per_source), n_sources)
    dst = (src * 37 + peer_idx * 11 + 1) % IP_DOMAIN
    dst = np.where(dst == src, (dst + 1) % IP_DOMAIN, dst)
    n_pairs = src.shape[0]

    # Anomalous pairs spike in ~half the windows.
    anomalous_pair = g.random(n_pairs) < anomaly_pair_frac

    frames: list[pd.DataFrame] = []
    rid0 = 0
    for w in range(n_windows):
        for k in range(probes_per_window):
            n = n_pairs
            # Probes spread evenly inside the window (never spilling out).
            offset = min(WINDOW_S - 1, k * WINDOW_S // probes_per_window)
            ts = np.full(n, w * WINDOW_S + offset, dtype=np.int64)
            rtt = np.exp(g.normal(np.log(400.0), 0.45, n))  # baseline ~400 µs
            spike = anomalous_pair & (
                g.random(n) < ANOMALY_WINDOW_PROB
            )
            rtt = np.where(
                spike, g.uniform(ANOMALY_RTT_US[0], ANOMALY_RTT_US[1], n), rtt
            )
            err = np.where(g.random(n) < err_rate, g.integers(1, 5, n), 0)
            frames.append(
                pd.DataFrame(
                    {
                        "record_id": np.arange(rid0, rid0 + n, dtype=np.int64),
                        "source_id": src.astype(np.int32),
                        "ts_s": ts,
                        "src_ip": src.astype(np.int64),
                        "src_cluster": (src // 100).astype(np.int32),
                        "dst_ip": dst.astype(np.int64),
                        "dst_cluster": (dst // 100).astype(np.int32),
                        "rtt_us": np.round(rtt, 1),
                        "err_code": err.astype(np.int32),
                    }
                )
            )
            rid0 += n
    return pd.concat(frames, ignore_index=True)


def tor_map(spark: SparkSession, *, table_size: int = 500) -> DataFrame:
    """Static ip -> ToR-switch table for the T2T join.

    ``table_size`` >= IP_DOMAIN keeps the join total over the trace; the
    paper grows the table 10x (500 -> 5000) to raise the join cost
    without changing query semantics — extra entries map unused IPs.
    """
    return spark.createDataFrame(tor_map_pandas(table_size=table_size))


def tor_map_pandas(*, table_size: int = 500) -> pd.DataFrame:
    if table_size < IP_DOMAIN:
        raise ValueError(
            f"table must cover the IP domain ({IP_DOMAIN}) for a total join"
        )
    ips = np.arange(table_size, dtype=np.int64)
    return pd.DataFrame({"ip": ips, "tor_id": (ips // SERVERS_PER_TOR).astype(np.int64)})
