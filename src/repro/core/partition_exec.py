"""Lossless data-level partitioned query execution on Spark.

This is the reproduction's core: the control-proxy data path.  Given a
window of records tagged by ``source_id`` and a load-factor vector
``p`` (one entry per operator), each proxy forwards a deterministic
``p_i`` fraction of its operator's input to the *local* (source-side)
operator and **drains** the rest to the stream processor, where a
replicated copy of the remaining pipeline finishes the work.  Partial
aggregates from both sides merge into the final result.

Record splitting hashes ``record_id`` with the proxy index and a seed
(``xxhash64``), so runs are deterministic and the per-stage splits are
mutually independent.  A record's whole route is therefore fixed by its
``record_id``: its **exit stage** is the index of the first proxy that
drains it, or ``M`` (the number of operators) when every proxy forwards
it.  A record with exit stage ``i`` runs operators ``0..i-1`` on the
source and the rest on the SP replica.  Stateless operators act record
by record, so *where* a record runs them does not change what they
produce, and the data path is one pass:

1. every record goes once through the stateless prefix;
2. the terminal Group+Reduce is one ``groupBy``: its aggregates are
   mergeable (rule R-1), so Spark's partial aggregation before the
   shuffle stands for both sides' partial aggregates and the final
   aggregation after it for the merge.  One extra aggregate,
   ``max(exit == M)``, marks the groups for which the source ships a
   partial aggregate.  A pipeline without a G+R returns the prefix
   output itself.

For *any* ``p`` the merged output equals the unpartitioned query — the
oracle tests pin this invariant.

The exit stage is recomputed from ``record_id`` wherever it is needed
(an operator such as a projection may drop any other column).  The
proxy counters are ``pyspark.sql.Observation`` metrics on the same plan:
at operator ``i``'s input, *total* counts every record (each one passes
the stateless prefix once, so this is the stage count the Profile phase
turns into relay ratios), *arrived* counts ``exit >= i`` and *drained*
counts ``exit == i``; on the output, the rows and the groups marked
as source partials.  So the action that produces the result also
produces every counter; :func:`run_partitioned` runs that action itself
(``localCheckpoint``) and returns plain ints.

Mapping to Spark (per the reproduction hint): data sources are stream
partitions; the prefix is narrow, pre-shuffle work; the drain paths and
the Group+Reduce's merge are the shuffle.  :mod:`repro.streaming.pushdown`
builds its streaming plan from the same single pass and ``groupBy``.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from repro.core.operators import RECORD_ID
from repro.core.pipeline import Pipeline, keep_observations

#: Hash-bucket resolution for load-factor splits (1e6 buckets ≈ 1e-6 p
#: granularity, far finer than the runtime's 1/16 grid).
_BUCKETS = 1_000_000
#: Per-group flag: true where the source ships a partial aggregate.
_SRC = "__src"


@dataclass(frozen=True)
class PartitionedRun:
    """Outcome of one partitioned window execution.

    Every count is an int taken from the action that produced ``result``.

    Attributes:
        result: final merged query output (equals the unpartitioned run),
            already computed.
        taken_counts: records processed locally per operator.
        drained_counts: records drained at each proxy (index = operator).
        source_partial_rows: partial-aggregate rows shipped by the source
            (0 when the pipeline has no terminal G+R or ``p_M`` = 0).
        sp_input_counts: records per drain stage once the SP replica has
            finished the stateless prefix (the SP's G+R input, or its
            share of the output when there is no G+R).
        output_rows: rows of ``result``.
        stage_counts: records entering each operator, then
            ``output_rows`` (:meth:`Pipeline.stage_counts` of the window).
    """

    result: DataFrame
    taken_counts: tuple[int, ...]
    drained_counts: tuple[int, ...]
    source_partial_rows: int
    sp_input_counts: tuple[int, ...]
    output_rows: int
    stage_counts: tuple[int, ...] = ()


def _split_sql(stage: int, p: float, seed: int) -> str:
    """Deterministic Bernoulli(p) split on ``record_id`` for one proxy.

    A SQL predicate, true where the proxy forwards the record.
    """
    return (
        f"pmod(xxhash64({RECORD_ID}, {stage}, {seed}), {_BUCKETS}) "
        f"< {int(round(p * _BUCKETS))}"
    )


def exit_stage(p: np.ndarray, seed: int) -> Column:
    """Index of the first proxy that drains a record, ``len(p)`` if none does."""
    # One SQL expression: built from column objects it costs a JVM round
    # trip per node, a sizeable share of a small window's run time.
    drains = " ".join(
        f"WHEN NOT ({_split_sql(i, float(v), seed)}) THEN {i}" for i, v in enumerate(p)
    )
    return F.expr(f"CASE {drains} ELSE {len(p)} END")


def single_pass(
    df: DataFrame,
    pipeline: Pipeline,
    exit_: Column,
    observation: Callable[[str], Observation | str],
) -> DataFrame:
    """Every record once through the stateless prefix, proxies observed.

    Observes ``proxy<i>`` (``total``, ``arrived``, ``drained``) at the
    input of every operator ``i`` and ``sp_input`` (``stage<i>``: records
    with exit stage ``i``) at the prefix output. ``observation`` maps a
    metric name to what ``DataFrame.observe`` takes: an ``Observation``
    in batch, the name itself in Structured Streaming. ``exit_`` is
    :func:`exit_stage` of the load factors.
    """

    def proxy(cur: DataFrame, i: int) -> DataFrame:
        return cur.observe(
            observation(f"proxy{i}"),
            F.count(F.lit(1)).alias("total"),
            F.count_if(exit_ >= i).alias("arrived"),
            F.count_if(exit_ == i).alias("drained"),
        )

    cur = df
    for i, op in enumerate(pipeline.stateless_prefix):
        cur = op.apply(proxy(cur, i))
    if pipeline.terminal_group_reduce is not None:
        cur = proxy(cur, pipeline.n_ops - 1)
    return cur.observe(
        observation("sp_input"),
        *[F.count_if(exit_ == i).alias(f"stage{i}") for i in range(pipeline.n_ops)],
    )


def run_partitioned(
    df: DataFrame,
    pipeline: Pipeline,
    p: np.ndarray | list[float],
    *,
    seed: int = 0,
) -> PartitionedRun:
    """Execute ``pipeline`` on ``df`` under load-factor vector ``p``.

    Args:
        df: one window (or epoch) of input records; must carry
            ``record_id``.
        pipeline: validated operator chain.
        p: load factor per operator, each in [0, 1]. ``p=1`` everywhere
            is All-Src; ``p=0`` everywhere is All-SP.
        seed: split seed — different seeds re-randomize proxy splits.

    Returns:
        PartitionedRun with the computed result and drain accounting.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (pipeline.n_ops,):
        raise ValueError(
            f"p has shape {p.shape}, expected ({pipeline.n_ops},) for "
            f"pipeline {pipeline.name}"
        )
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("load factors must lie in [0, 1]")
    if RECORD_ID not in df.columns:
        raise ValueError(f"input must carry a '{RECORD_ID}' column")

    obs: dict[str, Observation] = {}

    def observation(name: str) -> Observation:
        return obs.setdefault(name, Observation())

    exit_ = exit_stage(p, seed)
    result = single_pass(df, pipeline, exit_, observation)
    gr = pipeline.terminal_group_reduce
    output = [F.count(F.lit(1)).alias("rows")]
    if gr is not None:
        # A group has a source-side partial aggregate iff one of its
        # records ran every operator on the source.
        result = gr.apply(result, F.max(exit_ == pipeline.n_ops).alias(_SRC))
        output.append(F.count_if(F.col(_SRC)).alias("source_partial"))
    result = result.observe(observation("output"), *output).drop(_SRC)
    # Observation.get blocks until an action has run on the observed
    # plan: run it here so no counter waits on the caller.
    with keep_observations(df.sparkSession):
        result = result.localCheckpoint()

    proxies = [obs[f"proxy{i}"].get for i in range(pipeline.n_ops)]
    sp_input = obs["sp_input"].get
    out = obs["output"].get
    output_rows = int(out["rows"])
    return PartitionedRun(
        result=result,
        taken_counts=tuple(int(m["arrived"] - m["drained"]) for m in proxies),
        drained_counts=tuple(int(m["drained"]) for m in proxies),
        source_partial_rows=int(out.get("source_partial", 0)),
        sp_input_counts=tuple(int(sp_input[f"stage{i}"]) for i in range(pipeline.n_ops)),
        output_rows=output_rows,
        stage_counts=tuple(int(m["total"]) for m in proxies) + (output_rows,),
    )


def drained_bytes(
    run: PartitionedRun, pipeline: Pipeline, *, drain_overhead: float = 1.0
) -> float:
    """Network bytes shipped by the drain paths of one window.

    Stage-0 drains are bulk forwards (no per-record framing); deeper
    drains pay ``drain_overhead`` for Kryo framing, the target-operator
    id and replicated watermarks (paper §V).
    """
    return wire_bytes(run.drained_counts, pipeline.stage_bytes, drain_overhead)


def wire_bytes(drained, stage_bytes, drain_overhead: float) -> float:
    """Bytes of ``drained[i]`` records drained at each proxy ``i``.

    ``stage_bytes[i]`` is a record's wire size there; stage 0 is a bulk
    forward, deeper drains pay ``drain_overhead``.
    """
    total, overhead = 0.0, 1.0
    for n, b in zip(drained, stage_bytes):
        total += n * b * overhead
        overhead = drain_overhead
    return total
