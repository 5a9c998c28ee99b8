"""s2s_live_stream: S2SProbe windows through ``run_adaptive_stream``.

Closed loop, one client: a file-source Structured Stream reads one
parquet file-set per ~20K-record window (``maxFilesPerTrigger=1``), so
each micro-batch is one epoch of a live ``JarvisRuntime``: Probe, one
Profile epoch (``measure_relay_ratios``), the LP plan, then a fixed
partial plan. The budget sits below the all-local demand. Checkpoint
and WAL writes happen on every batch.

Each stream gets a fresh checkpoint directory (a reused checkpoint
would silently process zero batches). After a stream ends the run waits,
bounded and without a fixed sleep, for one listener progress event per
epoch, and fails if the counts differ.
"""
from __future__ import annotations

import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime
from time import perf_counter

from pyspark.sql import functions as F

from common import SETUP_REPS, Phase, RunStats, median, spark_layer

N_SOURCES, PEERS_PER_SOURCE, PROBES_PER_PAIR = 4, 250, 20  # 20,000 records per window
BUDGET_CORE = 0.2
WARMUP_WINDOWS = 4
#: Approximate steady-state seconds per micro-batch; sizes the stream to ``--seconds``.
SECONDS_PER_WINDOW = 0.625
#: Listener phase -> per-layer metric.
STREAM_PHASES = {
    "triggerExecution": "stream.trigger_ms",
    "addBatch": "stream.add_batch_ms",
    "queryPlanning": "stream.query_planning_ms",
    "latestOffset": "stream.latest_offset_ms",
    "getBatch": "stream.get_batch_ms",
    "walCommit": "stream.wal_commit_ms",
    "commitOffsets": "stream.commit_offsets_ms",
}


@dataclass
class State:
    bundle: object
    n_windows: int
    window_records: int
    ref_groups: list[int]
    epochs_dir: str
    listener: object
    layer: dict[str, float]
    runs: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    streams: int = 0


def n_windows(seconds: int) -> int:
    return max(4, math.ceil(seconds / SECONDS_PER_WINDOW))


def _prepare(spark, seed: int, windows: int):
    from repro.workloads.queries import s2s_query

    t0 = perf_counter()
    bundle = s2s_query(
        spark, n_sources=N_SOURCES, peers_per_source=PEERS_PER_SOURCE,
        n_windows=windows, probes_per_pair_per_window=PROBES_PER_PAIR, seed=seed,
    )
    t1 = perf_counter()
    ref_df = bundle.pipeline.apply_full(bundle.input_df)
    groups = sorted(r["count"] for r in ref_df.groupBy("window_id").count().collect())
    t2 = perf_counter()
    wcol = F.floor(F.col("ts_s") / 10).cast("long").alias("w")
    sizes = {r["count"] for r in bundle.input_df.groupBy(wcol).count().collect()}
    times = {"trace_build": t1 - t0, "apply_full": t2 - t1}
    return bundle, ref_df, groups, sizes, times, perf_counter() - t0


def setup(ctx):
    """Trace, references (DuckDB-verified once), epoch files, a warm-up stream."""
    import repro.core.runtime as runtime_mod
    import repro.streaming.pushdown as pushdown_mod
    from repro.oracle import assert_equivalent
    from repro.streaming.pushdown import write_epoch_files
    from repro.workloads.queries import S2S_ORACLE_SQL
    from sparkenv import make_progress_listener

    spark, checks = ctx.spark, ctx.checks
    windows = n_windows(ctx.seconds)
    reps = [_prepare(spark, ctx.seed, windows) for _ in range(SETUP_REPS)]
    bundle, ref_df, groups, sizes, _, _ = reps[-1]
    t0 = perf_counter()
    epochs_dir = ctx.run_dir / "epochs"
    written = write_epoch_files(bundle.input_df, str(epochs_dir))
    try:
        assert_equivalent(ref_df, S2S_ORACLE_SQL, **bundle.oracle_tables)
        oracle_ok = (True, "")
    except AssertionError as e:
        oracle_ok = (False, f"s2s reference differs from the DuckDB oracle: {e}")
    checks.unit(
        oracle_ok,
        (written == windows, f"s2s wrote {written} epoch files, expected {windows}"),
        (len(sizes) == 1, f"s2s windows differ in size: {sorted(sizes)}"),
    )
    st = State(
        bundle=bundle, n_windows=windows, window_records=min(sizes), ref_groups=groups,
        epochs_dir=str(epochs_dir), listener=make_progress_listener(spark),
        layer={
            "workloads.trace_build_s": median(r[4]["trace_build"] for r in reps),
            "pipeline.apply_full_s": median(r[4]["apply_full"] for r in reps),
        },
    )
    ctx.patches.tap(pushdown_mod, "run_partitioned", lambda a, k, run: st.runs.append(run))
    ctx.patches.tap(runtime_mod.JarvisRuntime, "run_epoch", lambda a, k, rep: st.reports.append(rep))
    warm_dir = ctx.run_dir / "epochs-warmup"
    for d in sorted(epochs_dir.glob("w=*"), key=lambda p: int(p.name[2:]))[:WARMUP_WINDOWS]:
        shutil.copytree(d, warm_dir / d.name)
    _stream(ctx, st, str(warm_dir), None)
    return st, median(r[5] for r in reps) + perf_counter() - t0


def _stream(ctx, st: State, input_dir: str, tracer):
    from repro.streaming.pushdown import run_adaptive_stream

    st.streams += 1
    st.listener.reset()
    st.runs.clear()
    st.reports.clear()
    t0 = perf_counter()
    with tracer.span("streaming.run_adaptive_stream", ambient=True) if tracer else nullcontext():
        history = run_adaptive_stream(
            ctx.spark, input_dir, st.bundle.pipeline, budget_core=BUDGET_CORE,
            checkpoint_dir=str(ctx.run_dir / f"checkpoint-{st.streams}"),
        )
    wall = perf_counter() - t0
    progress = sorted(st.listener.wait_for(len(history)), key=lambda p: p.batchId)
    return history, progress, wall


def _group_epochs(tracer, jobs, groups: list[str]) -> None:
    """Put each runtime epoch's Spark jobs in a job group of its own."""
    from repro.core.runtime import JarvisRuntime

    inner = vars(JarvisRuntime)["run_epoch"]

    def grouped(self, *args, **kwargs):
        group = f"s2s-epoch-{len(groups)}"
        tracer.epoch = len(groups)
        groups.append(group)
        jobs.set_group(group)
        try:
            return inner(self, *args, **kwargs)
        finally:
            jobs.set_group("s2s-between-epochs")

    tracer.patches.replace(JarvisRuntime, "run_epoch", grouped)


def _start_ms(progress) -> float:
    return datetime.fromisoformat(progress.timestamp.replace("Z", "+00:00")).timestamp() * 1e3


def measure(ctx, st: State, tracer, jobs) -> Phase:
    groups: list[str] = []
    lp_violations = ctx.lp_violations
    if jobs is not None:
        _group_epochs(tracer, jobs, groups)
    history, progress, wall = _stream(ctx, st, st.epochs_dir, tracer)
    stats = RunStats()
    for i, h in enumerate(history):
        run = st.runs[i] if i < len(st.runs) else None
        bad = stats.add(run, st.window_records) if run is not None else -1
        ctx.checks.unit(
            (all(0.0 <= v <= 1.0 for v in h.p), f"s2s epoch {h.epoch}: p={h.p} outside [0, 1]"),
            (bad == 0, f"s2s epoch {h.epoch}: proxy counters not conserved ({bad})"),
        )
    ctx.checks.unit(
        (len(history) == st.n_windows, f"s2s stream ran {len(history)} epochs, expected {st.n_windows}"),
        (len(progress) == len(history),
         f"s2s listener saw {len(progress)} progress events for {len(history)} epochs"),
        (len(st.runs) == len(history), f"s2s {len(st.runs)} partitioned runs for {len(history)} epochs"),
        (sorted(h.result_rows for h in history) == st.ref_groups, "s2s result rows differ from the reference"),
        (ctx.lp_violations == lp_violations, "s2s LP plan above its compute budget"),
    )
    layer = dict(st.layer)
    layer.update(stats.layer(len(history)))
    counts: list[tuple[int, int, int]] = []
    if jobs is not None:
        jobs.barrier()
        counts = [jobs.counts(g) for g in groups]
        layer.update(spark_layer(counts))
    for key, metric in STREAM_PHASES.items():
        layer[metric] = median(p.durationMs.get(key, 0) for p in progress)
    starts = [_start_ms(p) for p in progress]
    gaps = [b - (a + p.durationMs["triggerExecution"]) for a, b, p in zip(starts, starts[1:], progress)]
    layer["stream.gap_ms"] = median(gaps) if gaps else 0.0
    n = len(history)
    layer["runtime.profiles"] = sum(r.phase.value == "profile" for r in st.reports) / n
    layer["stepwise.moves"] = sum(a.p != b.p for a, b in zip(history, history[1:])) / n
    return Phase(
        epoch_s=[p.durationMs["triggerExecution"] / 1e3 for p in progress],
        wall_s=wall, job_s=wall, records=float(n * st.window_records),
        drained_bytes=sum(h.drained_bytes for h in history),
        nonstable_frac=sum(h.state != "stable" for h in history) / n,
        layer=layer, spark_counts=counts,
    )
