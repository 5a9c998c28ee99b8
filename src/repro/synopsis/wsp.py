"""Window-based sampling protocol (WSP) — the data-synopsis comparator.

The paper (§VI-D) contrasts Jarvis with continuous sampling from
distributed streams [Cormode et al.]: each data source ships a uniform
sample of its window to the stream processor, trading accuracy for
bandwidth.  Implemented here as a deterministic per-record Bernoulli
sample in Spark, with the paper's two accuracy views:

* **estimation error** — per (window, server pair), the error in the
  estimated probe-latency range (we use the max-RTT estimate, the
  quantity the 5 ms alert threshold reads); a pair with no sampled
  records is a complete miss (error = its true max);
* **alert analysis** — a true alert is a pair-window whose max RTT
  exceeds the threshold; WSP detects it only if a spiking record is
  sampled.

Bandwidth is simply the sampling rate (the sample ships verbatim).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.operators import window_id

#: Alert threshold: "probe latencies exceeding a threshold such as 5 ms".
ALERT_THRESHOLD_US = 5_000.0

_BUCKETS = 1_000_000


def _sampled(rate: float, seed: int) -> Column:
    """WSP's per-record predicate: true for the records a Bernoulli(rate) sample keeps."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("sampling rate must lie in [0, 1]")
    h = F.pmod(F.xxhash64(F.col("record_id"), F.lit(seed)), F.lit(_BUCKETS))
    return h < F.lit(int(round(rate * _BUCKETS)))


def wsp_sample(df: DataFrame, rate: float, *, seed: int = 0) -> DataFrame:
    """Deterministic Bernoulli(rate) sample of a probe stream."""
    return df.filter(_sampled(rate, seed))


def _pair_maxima(df: DataFrame, rates: Sequence[float], seed: int) -> pd.DataFrame:
    """Per pair-window: the true max RTT and, per rate, the sampled max.

    One aggregation serves every rate: ``est_<i>`` is the max over the
    records rate ``i``'s sample keeps, 0 for a pair it misses completely
    (a consumer that sees no data for the pair).
    """
    est = [
        F.coalesce(F.max(F.when(_sampled(r, seed), F.col("rtt_us"))), F.lit(0.0))
        .alias(f"est_{i}")
        for i, r in enumerate(rates)
    ]
    return (
        df.withColumn("window_id", window_id())
        .filter("err_code = 0")
        .groupBy("window_id", "src_ip", "dst_ip")
        .agg(F.max("rtt_us").alias("true_max"), *est)
        .toPandas()
    )


def _errors(maxima: pd.DataFrame, i: int) -> pd.DataFrame:
    pdf = maxima[["window_id", "src_ip", "dst_ip", "true_max"]].assign(est_max=maxima[f"est_{i}"])
    pdf["error_us"] = (pdf["true_max"] - pdf["est_max"]).abs()
    return pdf


@dataclass(frozen=True)
class WSPReport:
    """Accuracy/bandwidth summary for one sampling rate."""

    rate: float
    bandwidth_frac: float
    frac_err_within_1ms: float
    frac_err_above_5ms: float
    n_true_alerts: int
    n_missed_alerts: int

    @property
    def alert_miss_frac(self) -> float:
        return self.n_missed_alerts / self.n_true_alerts if self.n_true_alerts else 0.0


def estimation_errors(df: DataFrame, rate: float, *, seed: int = 0) -> pd.DataFrame:
    """Per pair-window max-RTT estimation error of WSP at ``rate``.

    Returns a pandas frame with columns ``true_max, est_max, error_us``
    (``est_max`` is 0 for completely missed pairs, per a consumer that
    sees no data for the pair).
    """
    return _errors(_pair_maxima(df, (rate,), seed), 0)


def evaluate_rates(
    df: DataFrame,
    rates: Sequence[float],
    *,
    seed: int = 0,
    threshold_us: float = ALERT_THRESHOLD_US,
) -> list[WSPReport]:
    """Full Fig. 9 metrics for each sampling rate, from one Spark aggregation."""
    maxima = _pair_maxima(df, rates, seed)
    reports = []
    for i, rate in enumerate(rates):
        pdf = _errors(maxima, i)
        true_alerts = pdf["true_max"] > threshold_us
        detected = pdf["est_max"] > threshold_us
        missed = true_alerts & ~detected
        reports.append(
            WSPReport(
                rate=rate,
                bandwidth_frac=rate,
                frac_err_within_1ms=float((pdf["error_us"] <= 1_000.0).mean()),
                frac_err_above_5ms=float((pdf["error_us"] > 5_000.0).mean()),
                n_true_alerts=int(true_alerts.sum()),
                n_missed_alerts=int(missed.sum()),
            )
        )
    return reports


def evaluate_rate(
    df: DataFrame,
    rate: float,
    *,
    seed: int = 0,
    threshold_us: float = ALERT_THRESHOLD_US,
) -> WSPReport:
    """Full Fig. 9 metrics for one sampling rate."""
    return evaluate_rates(df, (rate,), seed=seed, threshold_us=threshold_us)[0]
