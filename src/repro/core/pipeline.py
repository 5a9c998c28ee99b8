"""Query pipelines: validated operator chains.

After the paper's pushdown rules (§IV-B) are applied, queries deployed
on data sources are *chains* of stateless operators with at most one
terminal, incrementally-mergeable Group+Reduce.  ``Pipeline`` enforces
this shape at construction time:

* R-1 — non-mergeable aggregations are rejected by ``AggSpec``;
* R-2 — no operator may follow a stateful G+R (it would need state
  aggregated across data sources);
* R-3 — stream-stream joins are rejected (only static-table joins);
* R-4 — one physical operator per logical operator (``max_parallelism``
  is fixed to 1 on the data source).
"""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.operators import (
    GroupReduce,
    Operator,
    StatelessOp,
    UnsupportedOperatorError,
)

#: AQE rule that swaps a finished query stage with no output rows for an
#: empty relation. The observations inside that stage leave the final
#: plan with it and never report, so a window the filter empties would
#: lose the counters taken before the filter.
_AQE_EXCLUDED_RULES = "spark.sql.adaptive.optimizer.excludedRules"
_DROPS_OBSERVATIONS = "org.apache.spark.sql.execution.adaptive.AQEPropagateEmptyRelation"


@contextmanager
def keep_observations(spark: SparkSession) -> Iterator[None]:
    """Run an action with every ``Observation`` in its plan reporting."""
    prev = spark.conf.get(_AQE_EXCLUDED_RULES, None)
    spark.conf.set(_AQE_EXCLUDED_RULES, ",".join(filter(None, [prev, _DROPS_OBSERVATIONS])))
    try:
        yield
    finally:
        if prev is None:
            spark.conf.unset(_AQE_EXCLUDED_RULES)
        else:
            spark.conf.set(_AQE_EXCLUDED_RULES, prev)


def relay_ratios(counts: list[int]) -> np.ndarray:
    """Relay ratio per operator from :meth:`Pipeline.stage_counts`.

    Ratios are clipped to [0, 1] (a window's group count cannot exceed
    its record count); an operator with no input (0/0) gets 1.
    """
    c = np.array(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(c[:-1] > 0, c[1:] / c[:-1], 1.0)
    return np.clip(r, 0.0, 1.0)


@dataclass(frozen=True)
class Pipeline:
    """A validated operator chain for one monitoring query."""

    name: str
    ops: tuple[Operator, ...]
    #: Intra-operator parallelism on the data source (rule R-4).
    max_parallelism: int = 1

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("pipeline must contain at least one operator")
        for op in self.ops:
            if op.kind == "stream_join":
                raise UnsupportedOperatorError(
                    "stream-stream joins are not supported near data (rule R-3)"
                )
        for i, op in enumerate(self.ops):
            if isinstance(op, GroupReduce) and i != len(self.ops) - 1:
                raise UnsupportedOperatorError(
                    "operators downstream of a stateful G+R require state "
                    "aggregated across data sources (rule R-2)"
                )
        if self.max_parallelism != 1:
            raise UnsupportedOperatorError(
                "intra-operator parallelism on data sources is disabled "
                "(rule R-4)"
            )

    # -- structure -----------------------------------------------------------
    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def stateless_prefix(self) -> tuple[StatelessOp, ...]:
        """All operators before the terminal G+R (or all, if none)."""
        if self.terminal_group_reduce is not None:
            return tuple(self.ops[:-1])  # type: ignore[return-value]
        return tuple(self.ops)  # type: ignore[return-value]

    @property
    def terminal_group_reduce(self) -> GroupReduce | None:
        last = self.ops[-1]
        return last if isinstance(last, GroupReduce) else None

    # -- model vectors (for the LP / simulator) -------------------------------
    @property
    def cost_us(self) -> np.ndarray:
        """Per-record modelled cost per operator (µs)."""
        return np.array([op.cost_us for op in self.ops], dtype=float)

    @property
    def stage_bytes(self) -> np.ndarray:
        """Wire size of one record arriving at each operator (bytes)."""
        return np.array([op.input_bytes for op in self.ops], dtype=float)

    # -- execution -------------------------------------------------------------
    def apply_full(self, df: DataFrame) -> DataFrame:
        """Unpartitioned reference semantics (everything in one place)."""
        cur = df
        for op in self.stateless_prefix:
            cur = op.apply(cur)
        gr = self.terminal_group_reduce
        if gr is not None:
            cur = gr.apply(cur)
        return cur

    def stage_counts(self, df: DataFrame) -> list[int]:
        """Records entering each operator, then the output rows.

        One action: an ``Observation`` counts each stage boundary while
        the output is counted.
        """
        obs = [Observation() for _ in self.ops]

        def observed(cur: DataFrame, o: Observation) -> DataFrame:
            return cur.observe(o, F.count(F.lit(1)).alias("n"))

        cur = df
        for o, op in zip(obs, self.stateless_prefix):
            cur = op.apply(observed(cur, o))
        gr = self.terminal_group_reduce
        if gr is not None:
            cur = gr.apply(observed(cur, obs[-1]))
        with keep_observations(df.sparkSession):
            n_out = cur.count()
        return [int(o.get["n"]) for o in obs] + [int(n_out)]

    def measure_relay_ratios(self, df: DataFrame) -> np.ndarray:
        """Record-count relay ratio ``r_i`` per operator, measured on data.

        Runs the pipeline once, counting records at each stage boundary.
        For the terminal G+R the ratio is output groups / input records
        — data-dependent, exactly what the paper's Profile phase
        estimates online. See :func:`relay_ratios` for the clipping.
        """
        return relay_ratios(self.stage_counts(df))
