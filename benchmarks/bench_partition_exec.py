"""Benchmark: data-level partitioned execution on Spark at bench scale.

~200K probe records per run (the repo's SF~=0.1 equivalent for this
schema); exercises the full proxy-split / drain path and the one-groupBy
Group+Reduce, including shuffles (the session fixture disables automatic
broadcast joins; T2T's static-table join is broadcast by its query).
"""
import numpy as np
import pytest

from repro.core.partition_exec import run_partitioned
from repro.workloads.queries import s2s_query, t2t_query


@pytest.fixture(scope="module")
def big_s2s(spark):
    b = s2s_query(spark, n_sources=50, peers_per_source=400, n_windows=5)
    b.input_df.cache().count()
    return b


@pytest.mark.parametrize(
    "label,p",
    [
        ("all_sp", [0.0, 0.0, 0.0]),
        ("all_src", [1.0, 1.0, 1.0]),
        ("data_level", [1.0, 1.0, 0.8]),
    ],
)
def test_partitioned_s2s(benchmark, big_s2s, label, p):
    def once():
        return run_partitioned(big_s2s.input_df, big_s2s.pipeline, np.array(p)).output_rows

    rows = benchmark.pedantic(once, rounds=3, iterations=1, warmup_rounds=1)
    assert rows > 0


def test_partitioned_t2t_join(benchmark, spark):
    b = t2t_query(spark, n_sources=25, peers_per_source=300, n_windows=3)
    b.input_df.cache().count()

    def once():
        run = run_partitioned(b.input_df, b.pipeline, np.array([1, 1, 0.5, 1, 0.5]))
        return run.output_rows

    rows = benchmark.pedantic(once, rounds=2, iterations=1, warmup_rounds=1)
    assert rows > 0
