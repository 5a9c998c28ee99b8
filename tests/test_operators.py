"""Spark operator tests: semantics, mergeability, rule R-1."""
import numpy as np
import pandas as pd
import pytest

from repro.core.operators import (
    AggSpec,
    UnsupportedOperatorError,
    filter_op,
    group_reduce_op,
    map_op,
    window_op,
)


@pytest.fixture(scope="module")
def small_df(spark):
    g = np.random.default_rng(0)
    n = 200
    pdf = pd.DataFrame(
        {
            "record_id": np.arange(n),
            "ts_s": g.integers(0, 40, n),
            "key": g.integers(0, 5, n),
            "val": g.random(n) * 100,
            "err_code": g.integers(0, 3, n),
        }
    )
    return spark.createDataFrame(pdf).cache()


class TestAggSpec:
    @pytest.mark.parametrize("kind", ["count", "sum", "min", "max", "avg"])
    def test_mergeable_kinds_accepted(self, kind):
        AggSpec(kind, None if kind == "count" else "x")

    @pytest.mark.parametrize("kind", ["median", "exact_quantile", "percentile", "stddev"])
    def test_non_mergeable_rejected(self, kind):
        """Rule R-1: non incrementally-updatable aggregations rejected."""
        with pytest.raises(UnsupportedOperatorError):
            AggSpec(kind, "x")

    def test_column_required(self):
        with pytest.raises(ValueError):
            AggSpec("sum", None)


class TestStatelessOps:
    def test_window_assigns_tumbling_ids(self, small_df):
        op = window_op(cost_us=1.0, input_bytes=10)
        out = op.apply(small_df).toPandas()
        assert (out["window_id"] == out["ts_s"] // 10).all()

    def test_filter_applies_predicate(self, small_df):
        op = filter_op("err_code = 0", cost_us=1.0, input_bytes=10)
        out = op.apply(small_df).toPandas()
        assert (out["err_code"] == 0).all()
        expected = small_df.toPandas()
        assert len(out) == (expected["err_code"] == 0).sum()

    def test_map_projects_and_keeps_record_id(self, small_df):
        op = map_op({"doubled": "val * 2", "key": "key"}, cost_us=1.0, input_bytes=10)
        out = op.apply(small_df)
        assert set(out.columns) == {"record_id", "doubled", "key"}

    def test_op_dropping_record_id_rejected(self, small_df):
        from repro.core.operators import StatelessOp

        bad = StatelessOp(
            name="bad", kind="map", cost_us=1.0, input_bytes=10,
            fn=lambda df: df.select("val"),
        )
        with pytest.raises(ValueError, match="record_id"):
            bad.apply(small_df)


class TestGroupReduceMergeability:
    """G+R's one groupBy computes the plain per-group aggregates; that it
    stays lossless under any source/SP split is pinned by the oracle tests
    of ``run_partitioned``."""

    @pytest.fixture(scope="class")
    def gr(self):
        return group_reduce_op(
            ["key"],
            {
                "n": ("count", None),
                "total": ("sum", "val"),
                "lo": ("min", "val"),
                "hi": ("max", "val"),
                "mean": ("avg", "val"),
            },
            cost_us=1.0,
            input_bytes=10,
        )

    def canon(self, df):
        pdf = df.toPandas().sort_values("key").reset_index(drop=True)
        return pdf[sorted(pdf.columns)].round(6)

    def test_apply_matches_plain_groupby(self, gr, small_df):
        got = self.canon(gr.apply(small_df))
        exp = (
            small_df.toPandas()
            .groupby("key")["val"]
            .agg(n="size", total="sum", lo="min", hi="max", mean="mean")
            .reset_index()
        )
        exp = exp[sorted(exp.columns)].round(6)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
