"""The paper's three evaluation queries as validated Spark pipelines.

* **S2SProbe** (Listing 1): per-window server-to-server latency
  aggregates over Pingmesh probes — ``W -> F -> G+R``.
* **T2TProbe** (Listing 2): ToR-to-ToR latency aggregates via a join
  with a static ip→ToR table — ``W -> F -> J -> P -> G+R``.
* **LogAnalytics** (Listing 3): per-tenant latency/utilisation
  histograms over unstructured log lines — ``W -> F -> M -> G+R``.

Each builder returns a :class:`QueryBundle` with the input DataFrame,
the pipeline, and the DuckDB SQL + input tables for the oracle, so that
every partitioned execution can be checked for exact result equality.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import costmodel as cm
from repro.core.operators import filter_op, group_reduce_op, map_op, static_join_op, window_op
from repro.core.pipeline import Pipeline
from repro.workloads.loganalytics import LAT_BUCKET_MAX, LAT_BUCKET_MS, log_trace
from repro.workloads.pingmesh import pingmesh_trace, tor_map


@dataclass(frozen=True)
class QueryBundle:
    """A query ready to execute and verify."""

    name: str
    input_df: DataFrame
    pipeline: Pipeline
    oracle_sql: str
    oracle_tables: dict[str, DataFrame]


# --------------------------------------------------------------------------
# S2SProbe
# --------------------------------------------------------------------------
S2S_ORACLE_SQL = """
SELECT CAST(FLOOR(ts_s / 10) AS BIGINT) AS window_id,
       src_ip, dst_ip,
       avg(rtt_us) AS avg_rtt,
       max(rtt_us) AS max_rtt,
       min(rtt_us) AS min_rtt,
       count(*)    AS n_probes
FROM probes
WHERE err_code = 0
GROUP BY 1, 2, 3
"""


def s2s_pipeline() -> Pipeline:
    c = cm.s2s_costs()
    return Pipeline(
        name="s2sprobe",
        ops=(
            window_op(cost_us=c.cost_us[0], input_bytes=c.stage_bytes[0]),
            filter_op(
                "err_code = 0", cost_us=c.cost_us[1], input_bytes=c.stage_bytes[1]
            ),
            group_reduce_op(
                ["window_id", "src_ip", "dst_ip"],
                {
                    "avg_rtt": ("avg", "rtt_us"),
                    "max_rtt": ("max", "rtt_us"),
                    "min_rtt": ("min", "rtt_us"),
                    "n_probes": ("count", None),
                },
                cost_us=c.cost_us[2],
                input_bytes=c.stage_bytes[2],
            ),
        ),
    )


def s2s_query(
    spark: SparkSession,
    *,
    n_sources: int = 4,
    peers_per_source: int = 40,
    n_windows: int = 3,
    probes_per_pair_per_window: int = 2,
    seed: int = 7,
) -> QueryBundle:
    df = pingmesh_trace(
        spark,
        n_sources=n_sources,
        peers_per_source=peers_per_source,
        n_windows=n_windows,
        probes_per_pair_per_window=probes_per_pair_per_window,
        seed=seed,
    )
    return QueryBundle("s2sprobe", df, s2s_pipeline(), S2S_ORACLE_SQL, {"probes": df})


# --------------------------------------------------------------------------
# T2TProbe
# --------------------------------------------------------------------------
T2T_ORACLE_SQL = """
SELECT CAST(FLOOR(p.ts_s / 10) AS BIGINT) AS window_id,
       ms.tor_id AS src_tor,
       md.tor_id AS dst_tor,
       avg(p.rtt_us) AS avg_rtt,
       max(p.rtt_us) AS max_rtt,
       min(p.rtt_us) AS min_rtt,
       count(*)      AS n_probes
FROM probes p
JOIN tormap ms ON p.src_ip = ms.ip
JOIN tormap md ON p.dst_ip = md.ip
WHERE p.err_code = 0
GROUP BY 1, 2, 3
"""


def t2t_pipeline(tor_table: DataFrame, *, table_size: int = 500) -> Pipeline:
    c = cm.t2t_costs(table_size)

    def join_tor(df: DataFrame) -> DataFrame:
        # §IV-B: every source holds a copy of the static table, i.e. a
        # broadcast join (the session turns automatic broadcasts off).
        src_m = F.broadcast(tor_table.select(
            F.col("ip").alias("src_ip"), F.col("tor_id").alias("src_tor")
        ))
        dst_m = F.broadcast(tor_table.select(
            F.col("ip").alias("dst_ip"), F.col("tor_id").alias("dst_tor")
        ))
        return df.join(src_m, "src_ip").join(dst_m, "dst_ip")

    return Pipeline(
        name="t2tprobe",
        ops=(
            window_op(cost_us=c.cost_us[0], input_bytes=c.stage_bytes[0]),
            filter_op(
                "err_code = 0", cost_us=c.cost_us[1], input_bytes=c.stage_bytes[1]
            ),
            static_join_op(
                join_tor, cost_us=c.cost_us[2], input_bytes=c.stage_bytes[2]
            ),
            map_op(
                {
                    "window_id": "window_id",
                    "src_tor": "src_tor",
                    "dst_tor": "dst_tor",
                    "rtt_us": "rtt_us",
                },
                cost_us=c.cost_us[3],
                input_bytes=c.stage_bytes[3],
                name="P",
            ),
            group_reduce_op(
                ["window_id", "src_tor", "dst_tor"],
                {
                    "avg_rtt": ("avg", "rtt_us"),
                    "max_rtt": ("max", "rtt_us"),
                    "min_rtt": ("min", "rtt_us"),
                    "n_probes": ("count", None),
                },
                cost_us=c.cost_us[4],
                input_bytes=c.stage_bytes[4],
            ),
        ),
    )


def t2t_query(
    spark: SparkSession,
    *,
    n_sources: int = 4,
    peers_per_source: int = 40,
    n_windows: int = 3,
    table_size: int = 500,
    probes_per_pair_per_window: int = 2,
    seed: int = 7,
) -> QueryBundle:
    df = pingmesh_trace(
        spark,
        n_sources=n_sources,
        peers_per_source=peers_per_source,
        n_windows=n_windows,
        probes_per_pair_per_window=probes_per_pair_per_window,
        seed=seed,
    )
    tormap = tor_map(spark, table_size=table_size)
    return QueryBundle(
        "t2tprobe",
        df,
        t2t_pipeline(tormap, table_size=table_size),
        T2T_ORACLE_SQL,
        {"probes": df, "tormap": tormap},
    )


# --------------------------------------------------------------------------
# LogAnalytics
# --------------------------------------------------------------------------
_LAT_EXPR = "CAST(regexp_extract(line, 'latency_ms=([0-9.]+)', 1) AS DOUBLE)"

LOG_ORACLE_SQL = f"""
SELECT CAST(FLOOR(ts_s / 10) AS BIGINT) AS window_id,
       regexp_extract(line, 'tenant=(\\w+)', 1) AS tenant,
       LEAST({LAT_BUCKET_MAX},
             CAST(FLOOR({_LAT_EXPR} / {LAT_BUCKET_MS}) AS INT)) AS lat_bucket,
       count(*) AS n_jobs,
       avg(CAST(regexp_extract(line, 'cpu=([0-9.]+)', 1) AS DOUBLE)) AS avg_cpu,
       avg(CAST(regexp_extract(line, 'mem=([0-9.]+)', 1) AS DOUBLE)) AS avg_mem
FROM logs
WHERE line LIKE '%status=JOB_COMPLETE%'
GROUP BY 1, 2, 3
"""


def log_pipeline() -> Pipeline:
    c = cm.log_costs()
    return Pipeline(
        name="loganalytics",
        ops=(
            window_op(cost_us=c.cost_us[0], input_bytes=c.stage_bytes[0]),
            filter_op(
                "line LIKE '%status=JOB_COMPLETE%'",
                cost_us=c.cost_us[1],
                input_bytes=c.stage_bytes[1],
            ),
            map_op(
                {
                    "window_id": "window_id",
                    "tenant": r"regexp_extract(line, 'tenant=(\\w+)', 1)",
                    "lat_bucket": (
                        f"LEAST({LAT_BUCKET_MAX}, "
                        f"CAST(FLOOR({_LAT_EXPR} / {LAT_BUCKET_MS}) AS INT))"
                    ),
                    "cpu": "CAST(regexp_extract(line, 'cpu=([0-9.]+)', 1) AS DOUBLE)",
                    "mem": "CAST(regexp_extract(line, 'mem=([0-9.]+)', 1) AS DOUBLE)",
                },
                cost_us=c.cost_us[2],
                input_bytes=c.stage_bytes[2],
            ),
            group_reduce_op(
                ["window_id", "tenant", "lat_bucket"],
                {
                    "n_jobs": ("count", None),
                    "avg_cpu": ("avg", "cpu"),
                    "avg_mem": ("avg", "mem"),
                },
                cost_us=c.cost_us[3],
                input_bytes=c.stage_bytes[3],
            ),
        ),
    )


def log_query(
    spark: SparkSession,
    *,
    n_sources: int = 4,
    lines_per_source_window: int = 120,
    n_windows: int = 3,
    seed: int = 11,
) -> QueryBundle:
    df = log_trace(
        spark,
        n_sources=n_sources,
        lines_per_source_window=lines_per_source_window,
        n_windows=n_windows,
        seed=seed,
    )
    return QueryBundle("loganalytics", df, log_pipeline(), LOG_ORACLE_SQL, {"logs": df})
