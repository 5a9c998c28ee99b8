"""Structured Streaming pushdown tests.

Slowest tests in the suite (streaming queries + checkpoints); sizes are
kept minimal.
"""
import shutil

import numpy as np
import pytest

from repro.core import costmodel as cm
from repro.oracle import assert_equivalent
from repro.streaming.pushdown import (
    _BatchExecutor,
    build_partitioned_stream,
    run_adaptive_stream,
    write_epoch_files,
)
from repro.workloads.queries import s2s_query


@pytest.fixture(scope="module")
def bundle(spark):
    b = s2s_query(spark, n_sources=2, peers_per_source=20, n_windows=3)
    b.input_df.cache().count()
    return b


@pytest.fixture(scope="module")
def epoch_dir(bundle, tmp_path_factory):
    d = tmp_path_factory.mktemp("epochs")
    n = write_epoch_files(bundle.input_df, str(d))
    assert n == 3
    return str(d)


class TestStaticStreamingPlan:
    @pytest.mark.parametrize("p", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.7, 0.4]])
    def test_streaming_result_matches_oracle(self, spark, bundle, epoch_dir, tmp_path, p):
        schema = spark.read.parquet(epoch_dir).schema
        stream = (
            spark.readStream.schema(schema)
            .option("recursiveFileLookup", "true")
            .parquet(epoch_dir)
        )
        out = build_partitioned_stream(stream, bundle.pipeline, np.array(p))
        name = f"s2s_stream_{abs(hash(tuple(p))) % 10_000}"
        q = (
            out.writeStream.format("memory")
            .queryName(name)
            .outputMode("complete")
            .option("checkpointLocation", str(tmp_path / "ckpt"))
            .trigger(availableNow=True)
            .start()
        )
        q.awaitTermination(120)
        result = spark.table(name)
        assert_equivalent(result, bundle.oracle_sql, **bundle.oracle_tables)

    def test_requires_terminal_group_reduce(self, spark, bundle, epoch_dir):
        from repro.core.pipeline import Pipeline

        stateless = Pipeline(name="x", ops=bundle.pipeline.ops[:2])
        schema = spark.read.parquet(epoch_dir).schema
        stream = (
            spark.readStream.schema(schema)
            .option("recursiveFileLookup", "true")
            .parquet(epoch_dir)
        )
        with pytest.raises(ValueError, match="terminal"):
            build_partitioned_stream(stream, stateless, np.zeros(2))

    def test_wrong_p_shape(self, spark, bundle, epoch_dir):
        schema = spark.read.parquet(epoch_dir).schema
        stream = spark.readStream.schema(schema).option(
            "recursiveFileLookup", "true"
        ).parquet(epoch_dir)
        with pytest.raises(ValueError, match="entries"):
            build_partitioned_stream(stream, bundle.pipeline, np.zeros(2))


class TestAdaptiveLoop:
    def test_runtime_adapts_over_microbatches(self, spark, bundle, epoch_dir, tmp_path):
        """One micro-batch per epoch; the runtime starts at p=0 (Startup)
        and must begin raising load factors once the idle stream is
        detected."""
        history = run_adaptive_stream(
            spark,
            epoch_dir,
            bundle.pipeline,
            budget_core=5.0,  # ample: the stable plan is all-local
            checkpoint_dir=str(tmp_path / "ckpt_adapt"),
            detect_epochs=1,
        )
        assert len(history) == 3  # one epoch per window file
        assert history[0].p == (0.0, 0.0, 0.0)
        # By the last epoch the runtime moved off the all-drain plan.
        assert sum(history[-1].p) > 0.0
        # Drains shrink as load factors rise.
        assert history[-1].drained_records <= history[0].drained_records

    def test_empty_microbatch_is_an_epoch(self, spark, bundle, epoch_dir, tmp_path):
        """A zero-row epoch file is one more epoch with zero counters; the
        epochs before it are those of the stream without it."""
        base = run_adaptive_stream(
            spark, epoch_dir, bundle.pipeline, budget_core=5.0,
            checkpoint_dir=str(tmp_path / "ckpt_base"),
        )
        d = tmp_path / "epochs"
        shutil.copytree(epoch_dir, d)
        bundle.input_df.limit(0).coalesce(1).write.parquet(str(d / "w=99"))
        history = run_adaptive_stream(
            spark, str(d), bundle.pipeline, budget_core=5.0,
            checkpoint_dir=str(tmp_path / "ckpt_empty"),
        )
        assert len(history) == 4  # one epoch per window file
        assert history[:3] == base
        empty = history[3]
        assert (empty.drained_records, empty.drained_bytes, empty.result_rows) == (0, 0.0, 0)


class TestBatchExecutor:
    def test_deep_drains_pay_drain_overhead(self, bundle):
        """A plan that drains at stage 1 ships its drains with the ×1.2
        per-record framing overhead, as the batch Spark executor does."""
        ex = _BatchExecutor(bundle.pipeline, budget_core=5.0)
        ex.batch_df = bundle.input_df
        obs = ex.execute(np.array([1.0, 0.0, 0.0]))
        drained = ex.last_run.drained_counts
        assert drained[0] == 0 and drained[1] > 0 and drained[2] == 0
        expect = drained[1] * bundle.pipeline.stage_bytes[1] * cm.DRAIN_OVERHEAD
        assert obs.drained_bytes == pytest.approx(expect, rel=1e-12)
        assert cm.DRAIN_OVERHEAD > 1.0
