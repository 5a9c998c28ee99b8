"""The central correctness property of the reproduction:

    For ANY load-factor vector p, the merged output of the data-level
    partitioned execution equals the unpartitioned query — verified
    against DuckDB, not against Spark itself.

This is the paper's accuracy claim versus data synopses (§VI-D): query
partitioning reduces network traffic *without* touching the result.
"""
import time
import uuid

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.operators import filter_op
from repro.core.partition_exec import _split_sql, drained_bytes, run_partitioned
from repro.core.pipeline import Pipeline
from repro.oracle import assert_equivalent
from repro.workloads.queries import log_query, s2s_query, t2t_query


@pytest.fixture(scope="module")
def s2s(spark):
    b = s2s_query(spark, n_sources=3, peers_per_source=25, n_windows=2)
    b.input_df.cache().count()
    return b


@pytest.fixture(scope="module")
def t2t(spark):
    b = t2t_query(spark, n_sources=3, peers_per_source=25, n_windows=2)
    b.input_df.cache().count()
    return b


@pytest.fixture(scope="module")
def logq(spark):
    b = log_query(spark, n_sources=3, lines_per_source_window=60, n_windows=2)
    b.input_df.cache().count()
    return b


class TestOracleEquivalenceS2S:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0, 0.0, 0.0],  # All-SP
            [1.0, 1.0, 1.0],  # All-Src
            [1.0, 1.0, 0.0],  # Filter-Src-like (drain all G+R input)
            [1.0, 1.0, 0.5],  # data-level partial G+R
            [0.5, 0.5, 0.5],
            [0.25, 1.0, 0.75],
            [1.0, 0.0, 1.0],  # drain everything mid-pipeline
            [0.8, 0.8, 0.8],  # the LP's balanced subset plan
        ],
    )
    def test_any_p_matches_oracle(self, s2s, p):
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array(p))
        assert_equivalent(run.result, s2s.oracle_sql, **s2s.oracle_tables)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_any_split_seed_matches_oracle(self, s2s, seed):
        run = run_partitioned(
            s2s.input_df, s2s.pipeline, np.array([0.6, 0.6, 0.6]), seed=seed
        )
        assert_equivalent(run.result, s2s.oracle_sql, **s2s.oracle_tables)


class TestOracleEquivalenceT2T:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0] * 5,
            [1.0] * 5,
            [1.0, 1.0, 0.0, 0.0, 0.0],  # operator-level F-only
            [1.0, 1.0, 0.5, 1.0, 0.3],  # partial join + partial G+R
            [0.7, 0.4, 0.9, 0.2, 0.6],
        ],
    )
    def test_any_p_matches_oracle(self, t2t, p):
        run = run_partitioned(t2t.input_df, t2t.pipeline, np.array(p))
        assert_equivalent(run.result, t2t.oracle_sql, **t2t.oracle_tables)

    def test_bigger_static_table_same_result(self, spark, t2t):
        big = t2t_query(
            spark, n_sources=3, peers_per_source=25, n_windows=2, table_size=5000
        )
        run = run_partitioned(big.input_df, big.pipeline, np.array([1, 1, 0.5, 1, 0.5]))
        assert_equivalent(run.result, big.oracle_sql, **big.oracle_tables)


class TestOracleEquivalenceLog:
    @pytest.mark.parametrize(
        "p",
        [
            [0.0] * 4,
            [1.0] * 4,
            [1.0, 1.0, 1.0, 0.4],
            [1.0, 0.9, 0.2, 0.8],
            [0.3, 0.3, 0.3, 0.3],
        ],
    )
    def test_any_p_matches_oracle(self, logq, p):
        run = run_partitioned(logq.input_df, logq.pipeline, np.array(p))
        assert_equivalent(run.result, logq.oracle_sql, **logq.oracle_tables)


class TestAccounting:
    def test_counts_conserve_records(self, s2s):
        n = s2s.input_df.count()
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array([0.5, 0.7, 0.3]))
        # Proxy 0 splits the whole input.
        assert run.taken_counts[0] + run.drained_counts[0] == n
        # Everything drained eventually reaches an SP-side operator.
        assert sum(run.sp_input_counts) >= max(run.drained_counts)

    def test_all_src_drains_nothing(self, s2s):
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.ones(3))
        assert run.drained_counts == (0, 0, 0)
        assert run.source_partial_rows > 0

    def test_all_sp_takes_nothing(self, s2s):
        n = s2s.input_df.count()
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.zeros(3))
        assert run.drained_counts[0] == n
        assert run.taken_counts == (0, 0, 0)
        assert run.source_partial_rows == 0

    def test_split_fractions_respected(self, s2s):
        n = s2s.input_df.count()
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array([0.5, 1.0, 1.0]))
        assert run.taken_counts[0] / n == pytest.approx(0.5, abs=0.08)

    def test_seed_changes_split_not_result_size(self, s2s):
        p = np.array([0.5, 1.0, 1.0])
        a = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=1)
        b = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=2)
        assert a.taken_counts != b.taken_counts or a.drained_counts != b.drained_counts
        assert a.result.count() == b.result.count()

    def test_deterministic_same_seed(self, s2s):
        p = np.array([0.5, 0.5, 0.5])
        a = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=9)
        b = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=9)
        assert a.taken_counts == b.taken_counts
        assert a.drained_counts == b.drained_counts

    def test_drained_bytes_overhead(self, s2s):
        run = run_partitioned(s2s.input_df, s2s.pipeline, np.array([1.0, 1.0, 0.0]))
        raw = run.drained_counts[2] * 86.0
        assert drained_bytes(run, s2s.pipeline, drain_overhead=1.5) == pytest.approx(
            raw * 1.5
        )
        # Stage-0 drains are bulk: overhead never applies.
        run0 = run_partitioned(s2s.input_df, s2s.pipeline, np.zeros(3))
        n = run0.drained_counts[0]
        assert drained_bytes(run0, s2s.pipeline, drain_overhead=1.5) == pytest.approx(
            n * 86.0
        )


class TestValidation:
    def test_wrong_p_length(self, s2s):
        with pytest.raises(ValueError, match="shape"):
            run_partitioned(s2s.input_df, s2s.pipeline, np.ones(2))

    def test_p_out_of_range(self, s2s):
        with pytest.raises(ValueError, match="0, 1"):
            run_partitioned(s2s.input_df, s2s.pipeline, np.array([1.5, 0, 0]))

    def test_missing_record_id(self, spark, s2s):
        bad = s2s.input_df.drop("record_id")
        with pytest.raises(ValueError, match="record_id"):
            run_partitioned(bad, s2s.pipeline, np.ones(3))


class TestDataLevelVsOperatorLevel:
    def test_partial_processing_reduces_drains(self, s2s):
        """Fig. 3's point: processing part of G+R's input shrinks the
        drain versus draining all of it (operator-level)."""
        op_level = run_partitioned(
            s2s.input_df, s2s.pipeline, np.array([1.0, 1.0, 0.0])
        )
        data_level = run_partitioned(
            s2s.input_df, s2s.pipeline, np.array([1.0, 1.0, 0.8])
        )
        assert data_level.drained_counts[2] < op_level.drained_counts[2]
        assert drained_bytes(data_level, s2s.pipeline) < drained_bytes(
            op_level, s2s.pipeline
        )


def reference_counters(df, pipeline, p, seed=0):
    """Proxy counters the explicit way: a filter and a count per proxy.

    Records reaching proxy ``i`` are those every earlier proxy forwarded,
    after the earlier operators; the drained ones finish the stateless
    prefix on the SP replica.
    """
    prefix = pipeline.stateless_prefix
    gr = pipeline.terminal_group_reduce
    taken, drained, sp_input = [], [], []
    source_partial_rows = 0
    local = df
    for i in range(pipeline.n_ops):
        cond = F.expr(_split_sql(i, float(p[i]), seed))
        drain = local.filter(~cond)
        drained.append(drain.count())
        taken.append(local.count() - drained[-1])
        for op in prefix[i:]:
            drain = op.apply(drain)
        sp_input.append(drain.count())
        if i < len(prefix):
            local = prefix[i].apply(local.filter(cond))
        else:
            source_partial_rows = gr.apply(local.filter(cond)).count()
    return {
        "taken_counts": tuple(taken),
        "drained_counts": tuple(drained),
        "source_partial_rows": source_partial_rows,
        "sp_input_counts": tuple(sp_input),
        "output_rows": pipeline.apply_full(df).count(),
    }


def counters(run):
    return {k: getattr(run, k) for k in (
        "taken_counts", "drained_counts", "source_partial_rows",
        "sp_input_counts", "output_rows",
    )}


def jobs_per_call(spark, fn) -> int:
    """Spark jobs ``fn`` runs, counted by job group with ``StatusTracker``."""
    sc = spark.sparkContext
    group = f"jobs-{uuid.uuid4().hex}"
    marker = f"{group}-marker"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setJobGroup(marker, marker)
        spark.range(1).count()
        sc.setLocalProperty("spark.jobGroup.id", None)
    # The status store is fed by the listener bus in order: once the
    # marker job shows as finished, every job of the call is visible.
    st = sc.statusTracker()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        infos = [st.getJobInfo(j) for j in st.getJobIdsForGroup(marker)]
        if infos and all(i is not None and i.status == "SUCCEEDED" for i in infos):
            return len(st.getJobIdsForGroup(group))
        time.sleep(0.01)
    raise TimeoutError("Spark listener bus did not drain")


#: A mixed plan on the runtime's 1/16 grid, per pipeline length.
GRID_P = {3: [0.5, 0.8125, 0.375], 4: [0.9375, 0.5, 0.25, 0.6875],
          5: [0.75, 0.4375, 1.0, 0.125, 0.5625]}


class TestCountersMatchReference:
    """Every counter of the single pass equals the explicit per-proxy count."""

    @pytest.mark.parametrize("query", ["s2s", "t2t", "logq"])
    @pytest.mark.parametrize("plan", ["all_sp", "all_src", "grid"])
    def test_counters(self, request, query, plan):
        b = request.getfixturevalue(query)
        M = b.pipeline.n_ops
        p = {"all_sp": np.zeros(M), "all_src": np.ones(M), "grid": np.array(GRID_P[M])}[plan]
        run = run_partitioned(b.input_df, b.pipeline, p, seed=5)
        assert counters(run) == reference_counters(b.input_df, b.pipeline, p, seed=5)

    def test_stateless_pipeline(self, s2s):
        pl = Pipeline(name="wf", ops=s2s.pipeline.ops[:2])
        p = np.array([0.5, 0.75])
        run = run_partitioned(s2s.input_df, pl, p)
        assert counters(run) == reference_counters(s2s.input_df, pl, p)

    @pytest.mark.parametrize("query", ["s2s", "t2t", "logq"])
    def test_run_carries_stage_counts(self, request, query):
        """The run counts every stage boundary as ``Pipeline.stage_counts`` does."""
        b = request.getfixturevalue(query)
        M = b.pipeline.n_ops
        want = tuple(b.pipeline.stage_counts(b.input_df))
        for p in (np.zeros(M), np.ones(M), np.array(GRID_P[M])):
            run = run_partitioned(b.input_df, b.pipeline, p, seed=5)
            assert run.stage_counts == want, p

    def test_run_carries_stage_counts_of_odd_windows(self, s2s, t2t):
        """A pipeline without G+R, an empty window and windows the filter empties."""
        pl = Pipeline(name="wf", ops=s2s.pipeline.ops[:2])
        cases = [
            (pl, s2s.input_df),
            (s2s.pipeline, s2s.input_df.filter("record_id < 0")),
            *[(b.pipeline, b.input_df.withColumn("err_code", F.lit(1))) for b in (s2s, t2t)],
        ]
        for pipeline, df in cases:
            p = np.resize(GRID_P[3], pipeline.n_ops)
            run = run_partitioned(df, pipeline, p)
            assert run.stage_counts == tuple(pipeline.stage_counts(df)), pipeline.name

    def test_stage_counts(self, t2t):
        pl, df = t2t.pipeline, t2t.input_df
        want = [df.count()]
        cur = df
        for op in pl.stateless_prefix:
            cur = op.apply(cur)
            want.append(cur.count())
        want.append(pl.apply_full(df).count())
        assert pl.stage_counts(df) == want


class TestJobsPerCall:
    """The data path is one plan: its Spark jobs depend on neither ``p``
    nor the number of stateless stages."""

    def test_same_jobs_for_every_p_and_depth(self, spark, s2s):
        w, f, gr = s2s.pipeline.ops
        seen = set()
        for extra in (0, 1, 2, 4):
            more = tuple(
                filter_op("true", cost_us=0.1, input_bytes=86.0) for _ in range(extra)
            )
            pl = Pipeline(name="s2s_deep", ops=(w, f, *more, gr))
            M = pl.n_ops
            for p in (np.zeros(M), np.ones(M), np.resize(GRID_P[3], M)):
                seen.add(jobs_per_call(
                    spark, lambda: run_partitioned(s2s.input_df, pl, p)
                ))
        assert len(seen) == 1, seen

    @pytest.mark.parametrize("query, bound", [("s2s", 2), ("logq", 2), ("t2t", 3)])
    def test_jobs_per_call_bound(self, request, spark, query, bound):
        """One aggregation per window: the merge adds no Spark job of its own,
        and T2T's static table is broadcast by the query, not by the session."""
        assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
        b = request.getfixturevalue(query)
        M = b.pipeline.n_ops
        for p in (np.zeros(M), np.ones(M), np.array(GRID_P[M])):
            jobs = jobs_per_call(spark, lambda: run_partitioned(b.input_df, b.pipeline, p))
            assert jobs <= bound, (p, jobs)

    @pytest.mark.parametrize("query", ["s2s", "t2t", "logq"])
    def test_profile_runs_no_more_jobs_than_execute(self, request, spark, query):
        """A Profile micro-batch reads its relay ratios off its own run."""
        from repro.streaming.pushdown import _BatchExecutor

        b = request.getfixturevalue(query)
        ex = _BatchExecutor(b.pipeline, budget_core=0.5)
        ex.batch_df = b.input_df
        execute = jobs_per_call(spark, lambda: ex.execute(np.array(GRID_P[b.pipeline.n_ops])))
        profile = jobs_per_call(spark, ex.profile)
        assert profile <= execute, (profile, execute)

    def test_stage_counts_jobs_do_not_grow_with_depth(self, spark, s2s):
        w, f, gr = s2s.pipeline.ops
        seen = set()
        for extra in (0, 4):
            more = tuple(
                filter_op("true", cost_us=0.1, input_bytes=86.0) for _ in range(extra)
            )
            pl = Pipeline(name="s2s_deep", ops=(w, f, *more, gr))
            seen.add(jobs_per_call(spark, lambda: pl.stage_counts(s2s.input_df)))
        assert len(seen) == 1, seen


class TestEmptyWindows:
    def test_session_conf_restored(self, spark, s2s):
        """The AQE rule the data path turns off is back on afterwards."""
        key = "spark.sql.adaptive.optimizer.excludedRules"
        assert spark.conf.get(key, None) is None
        run_partitioned(s2s.input_df, s2s.pipeline, np.ones(3))
        assert spark.conf.get(key, None) is None
        rule = "org.apache.spark.sql.catalyst.optimizer.ConstantFolding"
        spark.conf.set(key, rule)
        try:
            s2s.pipeline.stage_counts(s2s.input_df)
            assert spark.conf.get(key) == rule
        finally:
            spark.conf.unset(key)

    def test_empty_window_counts_zero(self, s2s):
        empty = s2s.input_df.filter("record_id < 0")
        run = run_partitioned(empty, s2s.pipeline, np.array(GRID_P[3]))
        assert counters(run) == {
            "taken_counts": (0, 0, 0), "drained_counts": (0, 0, 0),
            "source_partial_rows": 0, "sp_input_counts": (0, 0, 0), "output_rows": 0,
        }
        assert s2s.pipeline.measure_relay_ratios(empty) == pytest.approx([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("query", ["s2s", "t2t"])
    def test_window_the_filter_empties(self, request, query):
        """Records counted before the filter stay counted; nothing reaches G+R."""
        b = request.getfixturevalue(query)
        df = b.input_df.withColumn("err_code", F.lit(1))  # F keeps err_code = 0
        M = b.pipeline.n_ops
        p = np.array(GRID_P[M])
        run = run_partitioned(df, b.pipeline, p)
        assert counters(run) == reference_counters(df, b.pipeline, p)
        assert run.taken_counts[2:] == (0,) * (M - 2)
        assert run.output_rows == 0 and run.result.count() == 0
        # W relays everything, F nothing, and later stages see 0/0 -> 1.
        assert b.pipeline.measure_relay_ratios(df) == pytest.approx([1.0, 0.0] + [1.0] * (M - 2))


class TestStreamingPlanCounters:
    def test_progress_reports_batch_counters(self, spark, s2s, tmp_path):
        """The streaming plan observes the same proxy counters as the batch run."""
        from repro.streaming.pushdown import build_partitioned_stream

        src = tmp_path / "in"
        s2s.input_df.write.parquet(str(src))
        stream = spark.readStream.schema(s2s.input_df.schema).parquet(str(src))
        p = np.array(GRID_P[3])
        q = (
            build_partitioned_stream(stream, s2s.pipeline, p, seed=2)
            .writeStream.format("memory").queryName("s2s_stream_counters")
            .outputMode("complete")
            .option("checkpointLocation", str(tmp_path / "ckpt"))
            .trigger(availableNow=True)
            .start()
        )
        q.awaitTermination(120)
        metrics = [m.observedMetrics for m in q.recentProgress if m.observedMetrics]
        drained = tuple(
            sum(m[f"proxy{i}"]["drained"] for m in metrics) for i in range(3)
        )
        sp_input = tuple(
            sum(m["sp_input"][f"stage{i}"] for m in metrics) for i in range(3)
        )
        run = run_partitioned(s2s.input_df, s2s.pipeline, p, seed=2)
        assert (drained, sp_input) == (run.drained_counts, run.sp_input_counts)
