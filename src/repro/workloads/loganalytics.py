"""Synthetic LogAnalytics text-log trace (paper §VI-A, Helios-style).

Unstructured ~128-byte log lines carrying tenant name, job id, running
time and CPU/memory utilisation, "for handling tenant-wise performance
issues for jobs running in an analytics cluster".  The LogAnalytics
query filters completed jobs, parses the line (the Map operator) and
bucketizes per-tenant latency/utilisation into histograms.

~90% of lines are ``JOB_COMPLETE`` (the paper notes a *low* filter-out
rate, which is why Filter-Src stays network-bound on this workload).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.operators import WINDOW_S

#: Pass rate of the status filter.
COMPLETE_RATE = 0.9
#: Number of tenants in the cluster.
N_TENANTS = 40
#: Histogram bucket width (ms) and top bucket id used by the query.
LAT_BUCKET_MS = 200.0
LAT_BUCKET_MAX = 9


def log_trace(
    spark: SparkSession,
    *,
    n_sources: int = 4,
    lines_per_source_window: int = 120,
    n_windows: int = 3,
    seed: int = 11,
) -> DataFrame:
    """Generate a log-line trace: ``record_id, source_id, ts_s, line``."""
    return spark.createDataFrame(
        log_trace_pandas(
            n_sources=n_sources,
            lines_per_source_window=lines_per_source_window,
            n_windows=n_windows,
            seed=seed,
        )
    )


def log_trace_pandas(
    *,
    n_sources: int = 4,
    lines_per_source_window: int = 120,
    n_windows: int = 3,
    seed: int = 11,
) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    n = n_sources * lines_per_source_window * n_windows
    source = np.tile(
        np.repeat(np.arange(n_sources), lines_per_source_window), n_windows
    )
    window = np.repeat(np.arange(n_windows), n_sources * lines_per_source_window)
    ts = window * WINDOW_S + g.integers(0, WINDOW_S, n)
    tenant = g.integers(0, N_TENANTS, n)
    job = g.integers(0, 100_000, n)
    latency = np.round(np.exp(g.normal(np.log(300.0), 0.9, n)), 1)  # ms
    cpu = np.round(g.uniform(1.0, 99.0, n), 1)
    mem = np.round(g.uniform(1.0, 99.0, n), 1)
    complete = g.random(n) < COMPLETE_RATE
    status = np.where(complete, "JOB_COMPLETE", "HEARTBEAT")
    level = np.where(g.random(n) < 0.95, "INFO", "WARN")

    pid = g.integers(1000, 99999, n)
    lines = [
        f"ts={t} host=srv-{s:04d}.dc1.cluster.internal pid={pd_} level={lv} "
        f"tenant=t{ten:03d} job=j{j:06d} status={st} "
        f"latency_ms={lat} cpu={c} mem={m}"
        for t, s, pd_, lv, ten, j, st, lat, c, m in zip(
            ts, source, pid, level, tenant, job, status, latency, cpu, mem
        )
    ]
    return pd.DataFrame(
        {
            "record_id": np.arange(n, dtype=np.int64),
            "source_id": source.astype(np.int32),
            "ts_s": ts.astype(np.int64),
            "line": lines,
        }
    )
