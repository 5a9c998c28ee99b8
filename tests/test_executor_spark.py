"""SparkEpochExecutor on real windows.

The Profile epoch reads its relay ratios off the all-drain run's own
proxy counters; they must equal an explicit measurement of the same
window. A Spark-backed runtime must settle on the all-drain plan, with
no compute used, when its budget drops to zero.
"""
import numpy as np
import pytest
from pyspark import StorageLevel

from repro.core.executor import SparkEpochExecutor
from repro.core.operators import window_id
from repro.core.proxy import QueryState
from repro.core.runtime import JarvisRuntime
from repro.workloads.queries import log_query, s2s_query, t2t_query

QUERIES = {
    "s2s": lambda spark: s2s_query(spark, n_sources=3, peers_per_source=25, n_windows=2),
    "t2t": lambda spark: t2t_query(spark, n_sources=3, peers_per_source=25, n_windows=2),
    "log": lambda spark: log_query(spark, n_sources=3, lines_per_source_window=60, n_windows=2),
}


@pytest.fixture(scope="module", params=sorted(QUERIES))
def bundle(request, spark):
    b = QUERIES[request.param](spark)
    b.input_df.cache().count()
    return b


def test_profile_relays_equal_measured(bundle):
    ex = SparkEpochExecutor(bundle.input_df, bundle.pipeline, budget_core=0.5, seed=1)
    est, obs = ex.profile()
    first = bundle.input_df.filter(window_id() == ex._windows[0])
    n = first.count()
    assert np.array_equal(est.relay, bundle.pipeline.measure_relay_ratios(first))
    assert np.array_equal(est.cost_us, bundle.pipeline.cost_us)
    # The Profile epoch drains everything at the first proxy.
    assert ex.last_run.drained_counts[0] == n
    assert obs.arrived[0] == n and not obs.forwarded.any()


def test_trace_is_not_cached(bundle):
    """The executor holds no copy of the trace that nothing would unpersist."""
    ex = SparkEpochExecutor(bundle.input_df, bundle.pipeline, budget_core=0.5, seed=1)
    assert ex.df.storageLevel == StorageLevel.NONE


def test_zero_budget_settles_on_all_drain(bundle):
    ex = SparkEpochExecutor(bundle.input_df, bundle.pipeline, budget_core=0.5, seed=1)
    rt = JarvisRuntime(ex, bundle.pipeline.n_ops)
    assert rt.run_until_stable(30)[-1].state is QueryState.STABLE
    assert rt.p.any()  # the small windows fit half a core: work moved to the source
    ex.budget_core = 0.0
    reps = rt.run_until_stable(30)
    last = reps[-1]
    assert last.state is QueryState.STABLE, [r.state for r in reps]
    assert not last.p.any() and last.obs.compute_used == 0.0
    assert len(reps) <= 10
