"""Micro-benchmarks: the per-epoch control loop of one Jarvis runtime.

Every epoch each runtime (one per query per source) runs its executor's
accounting, classifies the query and, while adapting, asks the
fine-tuner for the next load factors. These time one call of each on
the S2S, T2T and Log query shapes of ``repro.core.costmodel``.
"""
import numpy as np
import pytest

from repro.core import costmodel as cm
from repro.core.executor import ProfileEstimates, SimulatedEpochExecutor
from repro.core.proxy import QueryState, classify_query
from repro.core.stepwise import FineTuner

#: Measured relay ratios per shape (as the T-8 experiment uses them).
SHAPES = {
    "s2s": (cm.s2s_costs, (1.0, 0.86, 0.02), cm.pingmesh_records_per_sec),
    "t2t": (cm.t2t_costs, (1.0, 0.86, 1.0, 1.0, 0.05), cm.pingmesh_records_per_sec),
    "log": (cm.log_costs, (1.0, 0.9, 1.0, 0.1), cm.log_records_per_sec),
}
#: A budget tight enough that the all-local plan is congested.
BUDGET_CORE = 0.2


def _executor(kind: str) -> SimulatedEpochExecutor:
    costs, relay, rate = SHAPES[kind]
    c = costs()
    return SimulatedEpochExecutor(
        cost_us=np.array(c.cost_us),
        relay=np.array(relay),
        stage_bytes=np.array(c.stage_bytes),
        budget_core=BUDGET_CORE,
        records_per_epoch=rate() * cm.EPOCH_SECONDS,
        group_reduce_idx=(len(relay) - 1,),
    )


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_execute(benchmark, kind):
    ex = _executor(kind)
    p = np.full(len(ex.relay), 0.5)
    obs = benchmark(ex.execute, p)
    assert obs.compute_used <= BUDGET_CORE * ex.epoch_s


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_classify_query(benchmark, kind):
    ex = _executor(kind)
    p = np.ones(len(ex.relay))
    obs = ex.execute(p)
    assert benchmark(classify_query, obs, p) is QueryState.CONGESTED


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_next_p(benchmark, kind):
    """The first move of a model-predicted search on a congested query."""
    ex = _executor(kind)
    p = np.ones(len(ex.relay))
    model = ProfileEstimates(cost_us=ex.cost_us, relay=ex.relay, budget_core=BUDGET_CORE)

    def fresh():
        tuner = FineTuner(relay=ex.relay, model=model, records_per_epoch=ex.records_per_epoch)
        return (tuner, p, QueryState.CONGESTED), {}

    nxt = benchmark.pedantic(
        lambda tuner, p, state: tuner.next_p(p, state), setup=fresh, rounds=2000
    )
    assert nxt is not None and np.all((nxt >= 0.0) & (nxt <= 1.0))
