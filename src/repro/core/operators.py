"""Stream operators as Spark DataFrame transformations.

The paper's queries are chains of W(indow), F(ilter), M(ap), J(oin with
a static table) and G+R (windowed group + reduce).  Each operator here
carries:

* its *logical semantics* as a ``DataFrame -> DataFrame`` transformation
  (the Catalyst-optimized DataFrame API — no RDDs), and
* the metadata the partitioning algorithms need (kind, per-record model
  cost, wire size of its input records).

Stateful G+R accepts only incrementally-updatable aggregations (paper
§IV-B rule R-1), which is what makes data-level partitioning lossless:
partial aggregates computed on the data source merge with those
computed on the stream processor, and one Spark ``groupBy`` does both
steps (partial aggregation before the shuffle, merge after it).

Every stateless operator must preserve the ``record_id`` column — the
control proxies hash it to split records deterministically.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

#: Column every stateless operator must carry through (proxy split key).
RECORD_ID = "record_id"

#: Tumbling-window length (s): the queries' ``window_id`` and one epoch
#: of the trace executors.
WINDOW_S = 10

#: Aggregations that are incrementally updatable (mergeable) — rule R-1.
MERGEABLE_AGGS = frozenset({"count", "sum", "min", "max", "avg"})


class UnsupportedOperatorError(ValueError):
    """Raised when a pipeline violates the paper's pushdown rules R-1..R-3."""


@dataclass(frozen=True)
class AggSpec:
    """One output aggregate: ``kind`` over input column ``col``.

    ``col`` is ignored for ``count`` (count of records in the group).
    """

    kind: str
    col: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in MERGEABLE_AGGS:
            raise UnsupportedOperatorError(
                f"aggregation '{self.kind}' is not incrementally updatable "
                "(rule R-1); use a mergeable aggregate (count/sum/min/max/avg)"
            )
        if self.kind != "count" and not self.col:
            raise ValueError(f"aggregation '{self.kind}' requires a column")


@dataclass(frozen=True)
class Operator:
    """Base stream operator.

    Attributes:
        name: display name (W, F, J, P, M, G+R, ...).
        kind: one of window/filter/map/static_join/group_reduce/stream_join.
        cost_us: modelled per-record compute cost (µs of one core).
        input_bytes: wire size of one record arriving at this operator —
            what a drain at this operator's control proxy ships.
    """

    name: str
    kind: str
    cost_us: float
    input_bytes: float


@dataclass(frozen=True)
class StatelessOp(Operator):
    """Stateless operator defined by a DataFrame transformation."""

    fn: Callable[[DataFrame], DataFrame] = field(default=lambda df: df)

    def apply(self, df: DataFrame) -> DataFrame:
        out = self.fn(df)
        if RECORD_ID not in out.columns:
            raise ValueError(
                f"operator {self.name} dropped the '{RECORD_ID}' column; "
                "stateless operators must preserve it for proxy splitting"
            )
        return out


def window_id() -> Column:
    """The tumbling window of a record: ``floor(ts_s / WINDOW_S)``."""
    return F.floor(F.col("ts_s") / F.lit(WINDOW_S)).cast("long")


def window_op(*, cost_us: float, input_bytes: float) -> StatelessOp:
    """Tumbling-window assignment: adds ``window_id`` (:func:`window_id`)."""
    def fn(df: DataFrame) -> DataFrame:
        return df.withColumn("window_id", window_id())

    return StatelessOp(
        name="W", kind="window", cost_us=cost_us, input_bytes=input_bytes, fn=fn
    )


def filter_op(condition: str, *, cost_us: float, input_bytes: float,
              name: str = "F") -> StatelessOp:
    """Predicate filter from a SQL boolean expression."""
    return StatelessOp(
        name=name,
        kind="filter",
        cost_us=cost_us,
        input_bytes=input_bytes,
        fn=lambda df: df.filter(F.expr(condition)),
    )


def map_op(exprs: dict[str, str], *, cost_us: float, input_bytes: float,
           name: str = "M") -> StatelessOp:
    """Projection / user-defined transformation.

    ``exprs`` maps output column name -> SQL expression over the input;
    ``record_id`` is carried through automatically.
    """
    def fn(df: DataFrame) -> DataFrame:
        cols: list[Column] = [F.col(RECORD_ID)]
        cols += [F.expr(e).alias(n) for n, e in exprs.items()]
        return df.select(*cols)

    return StatelessOp(
        name=name, kind="map", cost_us=cost_us, input_bytes=input_bytes, fn=fn
    )


def static_join_op(fn: Callable[[DataFrame], DataFrame], *, cost_us: float,
                   input_bytes: float, name: str = "J") -> StatelessOp:
    """Join of the stream with a *static* table (rule R-3 allows these).

    ``fn`` closes over the static table DataFrame. Stream-stream joins
    are rejected at pipeline construction (see ``Pipeline``).
    """
    return StatelessOp(
        name=name, kind="static_join", cost_us=cost_us, input_bytes=input_bytes, fn=fn
    )


@dataclass(frozen=True)
class GroupReduce(Operator):
    """Windowed group-by + incrementally-mergeable reductions.

    Every aggregate is mergeable (rule R-1), so one ``groupBy`` over any
    mix of source- and SP-side records is the data-level partitioned
    result: Catalyst's partial aggregation before the exchange is the
    source-side partial step and the final aggregation after it merges
    both sides.
    """

    keys: tuple[str, ...] = ()
    aggs: tuple[tuple[str, AggSpec], ...] = ()

    def apply(self, df: DataFrame, *extra: Column) -> DataFrame:
        """The query output of ``df`` per group, plus any ``extra`` aggregates."""
        cols: list[Column] = []
        for out, spec in self.aggs:
            if spec.kind == "count":
                cols.append(F.count(F.lit(1)).alias(out))
            elif spec.kind == "sum":
                cols.append(F.sum(spec.col).alias(out))
            elif spec.kind == "min":
                cols.append(F.min(spec.col).alias(out))
            elif spec.kind == "max":
                cols.append(F.max(spec.col).alias(out))
            elif spec.kind == "avg":
                cols.append(F.avg(spec.col).alias(out))
        return df.groupBy(*self.keys).agg(*cols, *extra)


def group_reduce_op(keys: list[str], aggs: dict[str, tuple[str, str | None]], *,
                    cost_us: float, input_bytes: float,
                    name: str = "G+R") -> GroupReduce:
    """Build a G+R operator from ``{out_col: (kind, in_col)}``."""
    specs = tuple((out, AggSpec(kind, col)) for out, (kind, col) in aggs.items())
    return GroupReduce(
        name=name,
        kind="group_reduce",
        cost_us=cost_us,
        input_bytes=input_bytes,
        keys=tuple(keys),
        aggs=specs,
    )
