"""T-3 (paper Fig. 3): operator-level vs data-level partitioning at 80% CPU.

Three plans on S2SProbe/Pingmesh at the 10x rate:

* **operator-level** — Best-OP at 80%: F fits, G+R doesn't, so the whole
  post-F stream relays (paper: 22.5 Mbps, "close to the input rate");
* **data-level (paper plan)** — F everywhere + G+R on 83% of its input,
  the plan the paper's Fig. 3(b) converged to;
* **data-level (LP plan)** — the Eq. 3 optimum, which trades a slice of
  F coverage for full G+R coverage of the records it keeps and drains
  the remainder raw at stage 0 (bulk, no framing overhead).

Network traffic comes from the analytical model *and* from counting the
actual drained records of a real partitioned Spark execution.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core import costmodel as cm
from repro.core.operators import WINDOW_S
from repro.core.partition_exec import drained_bytes, run_partitioned
from repro.experiments.specs import s2s_spec
from repro.strategies.best_op import BestOp
from repro.strategies.jarvis import Jarvis
from repro.workloads.queries import s2s_query

BUDGET = 0.8
#: Paper Fig. 3(b): "the operator G+R can ... process 83% of its input".
PAPER_DATA_LEVEL_P = (1.0, 1.0, 0.83)


def run(spark: SparkSession) -> list[dict]:
    spec = s2s_spec(spark)
    bundle = s2s_query(
        spark, n_sources=4, peers_per_source=60, n_windows=3,
        probes_per_pair_per_window=20,  # 10x-rate probe density
    )
    input_mbps = spec.offered_mbps

    plans = {
        "operator-level (Best-OP@80%)": (BestOp().plan(spec, BUDGET), True),
        "data-level (paper plan p_GR=0.83)": (np.array(PAPER_DATA_LEVEL_P), False),
        "data-level (Eq.3 LP plan)": (Jarvis().plan(spec, BUDGET, input_mbps), False),
    }
    rows = []
    for name, (p, bulk) in plans.items():
        model_traffic = spec.traffic_mbps(input_mbps, p, bulk_boundary=bulk)
        run_ = run_partitioned(bundle.input_df, bundle.pipeline, p)
        measured_bytes = drained_bytes(
            run_, bundle.pipeline, drain_overhead=1.0 if bulk else cm.DRAIN_OVERHEAD
        )
        # Scale measured per-window bytes to the modelled input rate; every
        # record enters proxy 0, so stage_counts[0] is the trace size.
        trace_bytes = run_.stage_counts[0] * spec.record_bytes
        scale = (input_mbps * 1e6 / 8.0 * WINDOW_S * 3) / trace_bytes
        measured_mbps = measured_bytes * scale * 8.0 / 1e6 / (WINDOW_S * 3)
        rows.append(
            {
                "plan": name,
                "p": tuple(round(float(v), 3) for v in p),
                "compute_core": round(spec.demand_core(input_mbps, p), 3),
                "model_traffic_mbps": round(model_traffic, 2),
                "measured_traffic_mbps": round(measured_mbps, 2),
            }
        )
    return rows
