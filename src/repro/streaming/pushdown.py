"""Data-level partitioning as a Spark Structured Streaming query.

Per the reproduction mapping, the Jarvis dataflow is expressed as a
Structured Streaming query with *partial operators pushed down to the
source side before the shuffle*:

* data sources are partitions of the input stream;
* the stateless operators are narrow (pre-shuffle) transformations that
  every record passes once, whichever side its proxies send it to (the
  exit-stage pass of :mod:`repro.core.partition_exec`); the proxy
  splits are observed counters on that pass;
* the drain paths and the final Group+Reduce are the shuffle — Catalyst
  itself inserts the partial hash-aggregation before the exchange, which
  is exactly the source-side partial aggregate of §IV's data path.

Two entry points:

* :func:`build_partitioned_stream` — the *static-plan* streaming query
  for a fixed load-factor vector (lossless for any ``p``; tested against
  the DuckDB oracle).
* :func:`run_adaptive_stream` — an epoch-driven loop (one micro-batch =
  one epoch, via ``maxFilesPerTrigger=1`` over per-window files) where a
  ``foreachBatch`` hook hands the batch to the Spark epoch executor and
  lets a live :class:`~repro.core.runtime.JarvisRuntime` refine the load
  factors between epochs. Each epoch, Profile included, is one
  ``run_partitioned`` call on the batch: relay ratios are read off its
  proxy counters, so no epoch runs a Spark job of its own besides it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.executor import SparkEpochExecutor
from repro.core.operators import window_id
from repro.core.partition_exec import PartitionedRun, exit_stage, run_partitioned, single_pass
from repro.core.pipeline import Pipeline
from repro.core.runtime import JarvisRuntime


def build_partitioned_stream(
    stream_df: DataFrame, pipeline: Pipeline, p: np.ndarray, *, seed: int = 0
) -> DataFrame:
    """Streaming DataFrame computing the partitioned query's final result.

    The single pass of :func:`~repro.core.partition_exec.run_partitioned`:
    every record goes once through the stateless prefix, and the proxy
    counters for ``p`` are observed as named metrics (``proxy<i>`` with
    ``arrived``/``drained``, ``sp_input`` with ``stage<i>``) in each
    micro-batch's ``StreamingQueryProgress.observedMetrics``. The terminal
    G+R is one groupBy, as in the batch path (Structured Streaming
    forbids chained stateful operators): Catalyst's partial aggregation
    before the exchange is the source-side partial step. The result equals the
    unpartitioned query for any ``p``.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (pipeline.n_ops,):
        raise ValueError(f"p must have {pipeline.n_ops} entries")
    gr = pipeline.terminal_group_reduce
    if gr is None:
        raise ValueError("streaming pushdown requires a terminal G+R")
    return gr.apply(single_pass(stream_df, pipeline, exit_stage(p, seed), lambda name: name))


@dataclass(frozen=True)
class AdaptiveEpoch:
    """One micro-batch epoch of the adaptive streaming loop."""

    epoch: int
    p: tuple[float, ...]
    state: str
    drained_records: int
    drained_bytes: float
    result_rows: int


class _BatchExecutor(SparkEpochExecutor):
    """:class:`SparkEpochExecutor` fed foreachBatch micro-batches.

    ``run_epoch``-driven executors pull epochs; streaming pushes them.
    ``on_batch`` stores the current batch so the runtime's pull runs it.
    The stream supplies the windows, so the trace setup of the parent's
    constructor does not apply.
    """

    def __init__(self, pipeline: Pipeline, budget_core: float) -> None:
        self.pipeline = pipeline
        self.budget_core = budget_core
        self.batch_df: DataFrame | None = None

    def run(self, p: np.ndarray) -> PartitionedRun:
        """The current micro-batch through the data path under ``p``."""
        return run_partitioned(self.batch_df, self.pipeline, p)


def write_epoch_files(df: DataFrame, out_dir: str) -> int:
    """Materialize a trace as one parquet file-set per window (= epoch)."""
    wcol = window_id()
    windows = [r[0] for r in df.select(wcol.alias("w")).distinct().orderBy("w").collect()]
    for w in windows:
        (
            df.filter(wcol == w)
            .coalesce(1)
            .write.mode("overwrite")
            .parquet(os.path.join(out_dir, f"w={w}"))
        )
    return len(windows)


def run_adaptive_stream(
    spark: SparkSession,
    input_dir: str,
    pipeline: Pipeline,
    *,
    budget_core: float,
    checkpoint_dir: str,
    detect_epochs: int = 1,
) -> list[AdaptiveEpoch]:
    """Drive the Jarvis runtime from a file-source Structured Stream.

    Each micro-batch (one per-window file, ``maxFilesPerTrigger=1``) is
    an epoch: ``foreachBatch`` executes the current data-level plan,
    feeds the observation to the runtime, and the runtime refines the
    load factors for the next epoch. Returns the per-epoch history.
    """
    stream = (
        spark.readStream.schema(spark.read.parquet(input_dir).schema)
        .option("maxFilesPerTrigger", 1)
        .option("recursiveFileLookup", "true")
        .parquet(input_dir)
    )
    executor = _BatchExecutor(pipeline, budget_core)
    runtime = JarvisRuntime(executor, pipeline.n_ops, detect_epochs=detect_epochs)
    history: list[AdaptiveEpoch] = []

    def on_batch(batch_df: DataFrame, batch_id: int) -> None:
        # Every epoch, Profile included, reads its batch once: no cache.
        # An empty batch is an epoch with zero counters.
        executor.batch_df = batch_df
        rep = runtime.run_epoch()
        history.append(
            AdaptiveEpoch(
                epoch=rep.epoch,
                p=tuple(float(v) for v in rep.p),
                state=rep.state.value,
                drained_records=int(np.sum(rep.obs.drained)),
                drained_bytes=float(rep.obs.drained_bytes),
                result_rows=int(rep.obs.output_rows),
            )
        )

    q = (
        stream.writeStream.foreachBatch(on_batch)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination()
    return history
