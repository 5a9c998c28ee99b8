"""T-9 (paper Fig. 9): WSP sampling accuracy/bandwidth vs Jarvis.

WSP is evaluated on an anomaly-heavy Pingmesh trace (Scenario 1: the
interesting windows are the ones with network issues) at the paper's
sampling rates.  Jarvis' side of the comparison is its drain-traffic
fraction across CPU budgets (always with *exact* results — pinned by the
oracle tests).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core import costmodel as cm
from repro.experiments.specs import s2s_spec
from repro.strategies.jarvis import Jarvis
from repro.synopsis.wsp import evaluate_rates
from repro.workloads.pingmesh import pingmesh_trace

RATES = (0.2, 0.4, 0.6, 0.8)


def run(spark: SparkSession) -> dict:
    trace = pingmesh_trace(
        spark,
        n_sources=6,
        peers_per_source=60,
        n_windows=4,
        anomaly_pair_frac=0.3,
        seed=17,
    )
    wsp_rows = [
        {
            "sampling_rate": rep.rate,
            "bandwidth_frac": rep.bandwidth_frac,
            "err_within_1ms_frac": round(rep.frac_err_within_1ms, 3),
            "err_above_5ms_frac": round(rep.frac_err_above_5ms, 3),
            "alert_miss_frac": round(rep.alert_miss_frac, 3),
        }
        for rep in evaluate_rates(trace, RATES)
    ]
    # Jarvis bandwidth fraction across budgets (error is always 0).
    spec = s2s_spec(spark)
    jarvis_rows = []
    for b in (0.2, 0.4, 0.6, 0.8, 1.0):
        out = Jarvis().evaluate(spec, b, cm.PER_QUERY_CAP_MBPS)
        jarvis_rows.append(
            {
                "budget_pct": round(b * 100),
                "bandwidth_frac": round(out.traffic_mbps / out.throughput_mbps, 3),
                "err_within_1ms_frac": 1.0,
                "alert_miss_frac": 0.0,
            }
        )
    return {"wsp": wsp_rows, "jarvis": jarvis_rows}
