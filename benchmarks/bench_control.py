"""Micro-benchmarks: the per-epoch control loop of one Jarvis runtime.

Every epoch each runtime (one per query per source) runs its executor's
accounting, classifies the query and, while adapting, asks the
fine-tuner for the next load factors. These time one call of each on
the S2S, T2T and Log query shapes of the T-8 experiment
(``repro.experiments.fig8.executor``), and whole ``run_epoch`` calls of
the two kinds a fleet of runtimes spends most of its time in: a stable
Probe epoch and a Profile epoch (profile, LP plan, new fine-tuner).
"""
import numpy as np
import pytest

from repro.core.executor import ProfileEstimates
from repro.core.proxy import QueryState, classify_query
from repro.core.runtime import JarvisRuntime, Phase
from repro.core.stepwise import FineTuner
from repro.experiments import fig8

KINDS = ("log", "s2s", "t2t")
#: A budget tight enough that the all-local plan is congested.
BUDGET_CORE = 0.2


@pytest.mark.parametrize("kind", KINDS)
def test_execute(benchmark, kind):
    ex = fig8.executor(kind, BUDGET_CORE)
    p = np.full(len(ex.relay), 0.5)
    obs = benchmark(ex.execute, p)
    assert obs.compute_used <= BUDGET_CORE * ex.epoch_s


@pytest.mark.parametrize("kind", KINDS)
def test_classify_query(benchmark, kind):
    ex = fig8.executor(kind, BUDGET_CORE)
    p = np.ones(len(ex.relay))
    obs = ex.execute(p)
    assert benchmark(classify_query, obs, p) is QueryState.CONGESTED


@pytest.mark.parametrize("kind", KINDS)
def test_next_p(benchmark, kind):
    """The first move of a model-predicted search on a congested query."""
    ex = fig8.executor(kind, BUDGET_CORE)
    p = np.ones(len(ex.relay))
    model = ProfileEstimates(cost_us=ex.cost_us, relay=ex.relay, budget_core=BUDGET_CORE)

    def fresh():
        tuner = FineTuner(relay=ex.relay, model=model, records_per_epoch=ex.records_per_epoch)
        return (tuner, p, QueryState.CONGESTED), {}

    nxt = benchmark.pedantic(
        lambda tuner, p, state: tuner.next_p(p, state), setup=fresh, rounds=2000
    )
    assert nxt is not None and np.all((nxt >= 0.0) & (nxt <= 1.0))


def _stable_runtime(kind):
    ex = fig8.executor(kind, BUDGET_CORE)
    rt = JarvisRuntime(ex, len(ex.relay), mode="jarvis")
    rt.run_until_stable(80)
    assert rt.phase is Phase.PROBE
    return rt


@pytest.mark.parametrize("kind", KINDS)
def test_run_epoch_stable_probe(benchmark, kind):
    rt = _stable_runtime(kind)
    rep = benchmark(rt.run_epoch)
    assert rep.phase is Phase.PROBE and rep.state is QueryState.STABLE


@pytest.mark.parametrize("kind", KINDS)
def test_run_epoch_profile(benchmark, kind):
    rt = _stable_runtime(kind)

    def profile_next():
        rt.phase = Phase.PROFILE
        return (), {}

    rep = benchmark.pedantic(rt.run_epoch, setup=profile_next, rounds=2000)
    assert rep.phase is Phase.PROFILE and rt.phase is Phase.ADAPT
