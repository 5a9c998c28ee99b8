"""t2t_window_sweep: T2TProbe windows under a fixed set of forced plans.

Closed loop, one client: each epoch runs the next ~2K-record window of
the trace through ``SparkEpochExecutor.execute`` (which calls
``run_partitioned`` with its proxy counters on) under the next
load-factor vector of the cycle, then collects the merged result and
compares it with the window's reference rows. Whole cycles run until
``--seconds`` have passed.

The cycle is all-SP, all-Src and one mixed plan on the 1/16 grid. The
seed sets the trace, the proxy split hashes and the order of the cycle;
the set of plans is fixed, so drained bytes per record do not depend on
which plans a seed happened to draw.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from pyspark.sql import functions as F

from common import SETUP_REPS, Phase, RunStats, median, rows_match, spark_layer

N_SOURCES, PEERS_PER_SOURCE, PROBES_PER_PAIR = 4, 250, 2  # 2,000 records per window
N_WINDOWS = 4
#: Compute budget (cores) used to classify each forced plan.
BUDGET_CORE = 0.05
PLANS = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (8 / 16, 12 / 16, 4 / 16, 1.0, 8 / 16),
)


@dataclass
class State:
    executor: object
    cycle: list[np.ndarray]
    ref_cols: list[str]
    ref_rows: dict[int, list[tuple]]
    window_records: dict[int, int]
    windows: list[int]
    layer: dict[str, float]
    runs: list = field(default_factory=list)
    spark_counts: list = field(default_factory=list)
    epoch_no: int = 0
    #: (observation, non-stable?) of the latest epoch.
    last: tuple = ()


def _prepare(spark, seed: int):
    from repro.core.executor import SparkEpochExecutor
    from repro.workloads.queries import t2t_query

    t0 = perf_counter()
    bundle = t2t_query(
        spark, n_sources=N_SOURCES, peers_per_source=PEERS_PER_SOURCE,
        n_windows=N_WINDOWS, probes_per_pair_per_window=PROBES_PER_PAIR, seed=seed,
    )
    t1 = perf_counter()
    executor = SparkEpochExecutor(
        bundle.input_df, bundle.pipeline, budget_core=BUDGET_CORE, seed=seed
    )
    t2 = perf_counter()
    ref_df = bundle.pipeline.apply_full(bundle.input_df)
    ref = ref_df.collect()
    t3 = perf_counter()
    wcol = F.floor(F.col("ts_s") / 10).cast("long").alias("w")
    counts = {r["w"]: r["count"] for r in bundle.input_df.groupBy(wcol).count().collect()}
    cols = sorted(ref_df.columns)
    ref_rows: dict[int, list[tuple]] = {}
    for r in ref:
        ref_rows.setdefault(r["window_id"], []).append(tuple(r[c] for c in cols))
    times = {"trace_build": t1 - t0, "apply_full": t3 - t2}
    return bundle, executor, ref_df, cols, ref_rows, counts, times, perf_counter() - t0


def setup(ctx):
    """Trace, cached input, references (DuckDB-verified once), one warm-up epoch."""
    from repro.oracle import assert_equivalent
    from repro.workloads.queries import T2T_ORACLE_SQL

    spark, checks = ctx.spark, ctx.checks
    reps = []
    for _ in range(SETUP_REPS):
        if reps:
            reps[-1][1].df.unpersist()
        reps.append(_prepare(spark, ctx.seed))
    bundle, executor, ref_df, cols, ref_rows, counts, _, _ = reps[-1]
    t0 = perf_counter()
    try:
        assert_equivalent(ref_df, T2T_ORACLE_SQL, **bundle.oracle_tables)
        checks.unit()
    except AssertionError as e:
        checks.unit((False, f"t2t reference differs from the DuckDB oracle: {e}"))
    rng = np.random.default_rng(ctx.seed)
    cycle = [np.array(PLANS[i]) for i in rng.permutation(len(PLANS))]
    st = State(
        executor=executor, cycle=cycle, ref_cols=cols, ref_rows=ref_rows,
        window_records=counts, windows=sorted(counts),
        layer={
            "workloads.trace_build_s": median(r[6]["trace_build"] for r in reps),
            "pipeline.apply_full_s": median(r[6]["apply_full"] for r in reps),
        },
    )
    import repro.core.executor as executor_mod

    ctx.patches.tap(executor_mod, "run_partitioned", lambda a, k, run: st.runs.append(run))
    _epoch(ctx, st, np.zeros(len(PLANS[0])), None, None, RunStats())  # warm-up
    return st, median(r[7] for r in reps) + perf_counter() - t0


def _epoch(ctx, st: State, p, tracer, jobs, stats: RunStats) -> float:
    from repro.core.proxy import QueryState, classify_query

    k = st.epoch_no
    st.epoch_no += 1
    w = st.windows[k % len(st.windows)]
    group = f"t2t-epoch-{k}"
    if tracer is not None:
        tracer.epoch = k
    if jobs is not None:
        jobs.set_group(group)
    t0 = perf_counter()
    with tracer.span("bench.epoch") if tracer else nullcontext():
        obs = st.executor.execute(p)
        run = st.runs.pop()
        with tracer.span("partition_exec.result") if tracer else nullcontext():
            rows = run.result.collect()
    dt = perf_counter() - t0
    if jobs is not None:
        jobs.set_group(None)
        jobs.barrier()
        st.spark_counts.append(jobs.counts(group))
    got = [tuple(r[c] for c in st.ref_cols) for r in rows]
    bad = stats.add(run, st.window_records[w])
    ctx.checks.unit(
        (rows_match(got, st.ref_rows[w]), f"t2t epoch {k} (window {w}): result rows differ"),
        (bad == 0, f"t2t epoch {k}: {bad} proxy counters not conserved"),
    )
    st.last = (obs, classify_query(obs, p) is not QueryState.STABLE)
    return dt


def measure(ctx, st: State, tracer, jobs) -> Phase:
    stats = RunStats()
    st.spark_counts = []
    epoch_s: list[float] = []
    records = drained = 0.0
    nonstable = cycles = 0
    t0 = perf_counter()
    while True:
        for p in st.cycle:
            epoch_s.append(_epoch(ctx, st, p, tracer, jobs, stats))
            obs, unstable = st.last
            records += float(obs.arrived[0])
            drained += float(obs.drained_bytes)
            nonstable += unstable
        cycles += 1
        if perf_counter() - t0 >= ctx.seconds:
            break
    wall = perf_counter() - t0
    layer = {**stats.layer(len(epoch_s)), **spark_layer(st.spark_counts), **st.layer}
    return Phase(
        epoch_s=epoch_s, wall_s=wall, job_s=wall / cycles, records=records,
        drained_bytes=drained, nonstable_frac=nonstable / len(epoch_s), layer=layer,
        spark_counts=list(st.spark_counts),
    )
