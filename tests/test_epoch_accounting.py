"""Epoch accounting on Python floats against the NumPy reference.

The per-epoch control loop (executor accounting, the Profile epoch, the
Eq. 3 LP solve, ``classify_query`` and the fine-tuner's helpers) and the
table simulator's throughput model work on Python floats. The ``_ref_*``
functions below are the earlier NumPy formulation, kept as the
reference: every result must be bit-identical to it, not merely close.
"""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.spec import WorkloadSpec
from repro.core import costmodel as cm
from repro.core.convergence_sim import OpCountResult, sweep_operator_counts
from repro.core.executor import (
    ProfileEstimates,
    SimulatedEpochExecutor,
    epoch_observation,
    measured_observation,
)
from repro.core.partition_exec import PartitionedRun
from repro.core.proxy import EpochObservation, ProxyState, QueryState, classify_query
from repro.core.runtime import JarvisRuntime
from repro.core.stepwise import TARGET_UTIL, FineTuner, ffd_priority_order
from repro.experiments import fig8
from repro.lp.plan_lp import solve_plan

N_DRAWS = 3000
FIELDS = ("arrived", "forwarded", "processed", "drained", "pending_frac", "idle_frac")


# -- NumPy reference ------------------------------------------------------------
def _ref_flow_counts(n_records, p, relay):
    M = len(p)
    arrived = np.zeros(M)
    forwarded = np.zeros(M)
    drained = np.zeros(M)
    cur = float(n_records)
    for i in range(M):
        arrived[i] = cur
        forwarded[i] = cur * p[i]
        drained[i] = cur - forwarded[i]
        cur = forwarded[i] * relay[i]
    return arrived, forwarded, drained


def _ref_execute(ex, p):
    p = np.asarray(p, dtype=float)
    arrived, forwarded, drained = _ref_flow_counts(ex.records_per_epoch, p, ex.relay)
    demand_s = float(np.sum(forwarded * ex.cost_us)) * 1e-6
    budget_s = ex.budget_core * ex.epoch_s
    if demand_s <= budget_s or demand_s == 0.0:
        processed = forwarded.copy()
    else:
        processed = forwarded * (budget_s / demand_s)
    pending = forwarded - processed
    with np.errstate(divide="ignore", invalid="ignore"):
        pending_frac = np.where(forwarded > 0, pending / forwarded, 0.0)
    util = min(1.0, demand_s / budget_s) if budget_s > 0 else 1.0
    total_drained = drained + pending
    dbytes = float(
        np.sum(
            total_drained
            * ex.stage_bytes
            * np.where(np.arange(len(p)) == 0, 1.0, ex.drain_overhead)
        )
    )
    return EpochObservation(
        arrived=arrived,
        forwarded=forwarded,
        processed=processed,
        drained=total_drained,
        pending_frac=pending_frac,
        idle_frac=np.full(len(p), 1.0 - util),
        compute_used=min(demand_s, budget_s),
        drained_bytes=dbytes + ex.output_bytes_per_epoch,
    )


def _ref_measured(run, pipeline, budget_s, drain_overhead):
    forwarded = np.array(run.taken_counts, dtype=float)
    drained = np.array(run.drained_counts, dtype=float)
    demand_s = float(np.sum(forwarded * pipeline.cost_us)) * 1e-6
    if demand_s <= budget_s or demand_s == 0:
        processed = forwarded.copy()
    else:
        processed = forwarded * (budget_s / demand_s)
    pending = forwarded - processed
    with np.errstate(divide="ignore", invalid="ignore"):
        pending_frac = np.where(forwarded > 0, pending / forwarded, 0.0)
    util = min(1.0, demand_s / budget_s) if budget_s > 0 else 1.0
    return EpochObservation(
        arrived=forwarded + drained,
        forwarded=forwarded,
        processed=processed,
        drained=drained + pending,
        pending_frac=pending_frac,
        idle_frac=np.full(len(forwarded), 1.0 - util),
        compute_used=min(demand_s, budget_s),
        drained_bytes=_ref_drained_bytes(run, pipeline, drain_overhead),
        output_rows=float(run.output_rows),
    )


def _ref_drained_bytes(run, pipeline, drain_overhead):
    sizes = pipeline.stage_bytes
    total = 0.0
    for i, n in enumerate(run.drained_counts):
        oh = 1.0 if i == 0 else drain_overhead
        total += n * sizes[i] * oh
    return total


def _ref_classify_proxy(pending_frac, idle_frac, drained_thres, idle_thres):
    if pending_frac > drained_thres:
        return ProxyState.CONGESTED
    if idle_frac > idle_thres:
        return ProxyState.IDLE
    return ProxyState.STABLE


def _ref_classify_query(obs, p, drained_thres=cm.DRAINED_THRES, idle_thres=cm.IDLE_THRES):
    states = [
        _ref_classify_proxy(
            float(obs.pending_frac[i]), float(obs.idle_frac[i]), drained_thres, idle_thres
        )
        for i in range(len(p))
    ]
    if any(s is ProxyState.CONGESTED for s in states):
        return QueryState.CONGESTED
    if all(s is ProxyState.IDLE for s in states) and bool(np.any(p < 1.0 - 1e-9)):
        return QueryState.IDLE
    return QueryState.STABLE


def _ref_ffd_priority_order(relay):
    relay = np.asarray(relay, dtype=float)
    idx = np.arange(len(relay))
    return idx[np.lexsort((-idx, relay))]


def _ref_demand(tuner, p):
    _, fwd, _ = _ref_flow_counts(tuner.records_per_epoch, p, tuner.model.relay)
    return float(np.sum(fwd * tuner.model.cost_us * tuner.kappa)) * 1e-6


def _ref_predicted_p(tuner, p, op):
    budget_s = tuner.model.budget_core * cm.EPOCH_SECONDS
    p0 = p.copy()
    p0[op] = 0.0
    p1 = p.copy()
    p1[op] = 1.0
    d0, d1 = _ref_demand(tuner, p0), _ref_demand(tuner, p1)
    if d1 - d0 <= 1e-12:
        return None
    x = (TARGET_UTIL * budget_s - d0) / (d1 - d0)
    return float(np.clip(x, 0.0, 1.0))


def _ref_unit_demand_us(spec, p):
    _, fwd, _ = _ref_flow_counts(1.0, np.asarray(p, dtype=float), spec.relay)
    return float(np.sum(fwd * spec.cost_us))


def _ref_traffic_mbps(spec, x_mbps, p, bulk_boundary):
    p = np.asarray(p, dtype=float)
    rps = spec.records_per_sec(x_mbps)
    _, _, drained = _ref_flow_counts(rps, p, spec.relay)
    oh = np.where(np.arange(len(p)) == 0, 1.0, 1.0 if bulk_boundary else cm.DRAIN_OVERHEAD)
    bytes_per_sec = float(np.sum(drained * spec.stage_bytes * oh))
    if p[-1] > 0:
        bytes_per_sec += spec.output_bytes_per_record * rps
    return bytes_per_sec * 8.0 / 1e6


def _ref_kappa(tuner, p, compute_used, pending_frac):
    est_demand = _ref_demand(tuner, p)
    if est_demand <= 0:
        return tuner.kappa
    actual = compute_used / max(1e-9, 1.0 - min(pending_frac, 0.99))
    return float(np.clip(actual / est_demand * tuner.kappa, 0.05, 20.0))


def _ref_profile(ex):
    M = len(ex.cost_us)
    full_arrived, _, _ = _ref_flow_counts(ex.records_per_epoch, np.ones(M), ex.relay)
    share_s = ex.budget_core * ex.epoch_s / max(M, 1)
    needed_s = full_arrived * ex.cost_us * 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(needed_s > 0, np.minimum(1.0, share_s / needed_s), 1.0)
    cost_hat = ex.cost_us * (1.0 - cm.PROFILE_ERROR_GAIN * (1.0 - frac))
    relay_hat = ex.relay.copy()
    for i in ex.group_reduce_idx:
        headroom = 1.0 - ex.relay[i]
        relay_hat[i] = ex.relay[i] + cm.RELAY_ERROR_GAIN * (1.0 - frac[i]) * headroom
    est = ProfileEstimates(cost_us=cost_hat, relay=relay_hat, budget_core=ex.budget_core)
    return est, _ref_execute(ex, np.zeros(M))


def _ref_cumulative_relay(relay_ratios):
    r = np.asarray(relay_ratios, dtype=float)
    return np.concatenate(([1.0], np.cumprod(r)[:-1]))


def _ref_e_to_p(e):
    e = np.asarray(e, dtype=float)
    prev = np.concatenate(([1.0], e[:-1]))
    p = np.where(prev > 1e-9, e / np.maximum(prev, 1e-9), 0.0)
    return np.clip(p, 0.0, 1.0)


def _ref_solve_plan(relay_ratios, costs, budget):
    """``solve_plan`` on NumPy's cumulative relay and e->p, every depth pair tried."""
    M = len(relay_ratios)
    R = _ref_cumulative_relay(relay_ratios).tolist()
    D = R + [0.0]
    C = [0.0]
    for Rk, ck in zip(R, np.asarray(costs, dtype=float).tolist()):
        C.append(C[-1] + Rk * ck)
    best, j_best, k_best, lam_best = (D[0], C[0]), 0, 0, 0.0
    for j in range(M + 1):
        if C[j] > budget:
            continue
        if (D[j], C[j]) < best:
            best, j_best, k_best, lam_best = (D[j], C[j]), j, j, 0.0
        for k in range(M + 1):
            if C[k] > budget and D[k] < D[j]:
                lam = (budget - C[j]) / (C[k] - C[j])
                key = (D[j] + lam * (D[k] - D[j]), budget)
                if key < best:
                    best, j_best, k_best, lam_best = key, j, k, lam
    if j_best <= k_best:
        lo, hi, deep = j_best, k_best, lam_best
    else:
        lo, hi, deep = k_best, j_best, 1.0 - lam_best
    e = np.clip(np.array([1.0] * lo + [deep] * (hi - lo) + [0.0] * (M - hi)), 0.0, 1.0)
    return e, _ref_e_to_p(e), best[0], best[1]


# -- seeded draws ---------------------------------------------------------------
def _draw_p(rng, M):
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(0, cm.P_GRID + 1, M) / cm.P_GRID  # on the 1/16 grid
    if kind == 1:
        return rng.uniform(0.0, 1.0, M)  # off the grid
    return np.where(rng.random(M) < 0.5, rng.uniform(0.0, 1.0, M), rng.integers(0, 2, M))


def _draw_executor(rng):
    M = int(rng.integers(1, 6))
    cost = rng.uniform(0.05, 40.0, M) * (rng.random(M) < 0.9)  # some zero costs
    return SimulatedEpochExecutor(
        cost_us=cost,
        relay=np.where(rng.random(M) < 0.3, 1.0, rng.uniform(0.0, 1.0, M)),
        stage_bytes=rng.uniform(8.0, 200.0, M),
        budget_core=float(rng.choice([0.0, rng.uniform(0.0, 0.2), rng.uniform(0.0, 2.0)])),
        records_per_epoch=float(rng.choice([0.0, 38081.0, rng.uniform(1.0, 1e5)])),
        output_bytes_per_epoch=float(rng.choice([0.0, rng.uniform(0.0, 1e4)])),
        drain_overhead=float(rng.choice([1.0, cm.DRAIN_OVERHEAD, rng.uniform(1.0, 2.0)])),
    )


def _draws(seed):
    rng = np.random.default_rng(seed)
    for _ in range(N_DRAWS):
        ex = _draw_executor(rng)
        yield rng, ex, _draw_p(rng, len(ex.cost_us))


def _assert_same(obs, ref):
    for name in FIELDS:
        a, b = getattr(obs, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert obs.compute_used == ref.compute_used
    assert obs.drained_bytes == ref.drained_bytes
    assert obs.output_rows == ref.output_rows


class TestBitIdentical:
    def test_simulated_execute(self):
        for _, ex, p in _draws(1):
            _assert_same(ex.execute(p), _ref_execute(ex, p))

    def test_measured_counters(self):
        rng = np.random.default_rng(2)
        for _ in range(N_DRAWS):
            M = int(rng.integers(1, 6))
            high = int(rng.choice([1, 50, 40_000]))
            run = PartitionedRun(
                result=None,
                taken_counts=tuple(int(n) for n in rng.integers(0, high, M)),
                drained_counts=tuple(int(n) for n in rng.integers(0, high, M)),
                source_partial_rows=0,
                sp_input_counts=(),
                output_rows=int(rng.integers(0, 100)),
            )
            pipeline = SimpleNamespace(
                cost_us=rng.uniform(0.05, 40.0, M), stage_bytes=rng.uniform(8.0, 200.0, M)
            )
            budget_s = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            overhead = float(rng.choice([1.0, cm.DRAIN_OVERHEAD]))
            _assert_same(
                measured_observation(run, pipeline, budget_s, overhead),
                _ref_measured(run, pipeline, budget_s, overhead),
            )

    def test_simulated_profile(self):
        for rng, ex, _ in _draws(8):
            M = len(ex.cost_us)
            ex.group_reduce_idx = tuple(int(i) for i in np.flatnonzero(rng.random(M) < 0.5))
            est, obs = ex.profile()
            ref_est, ref_obs = _ref_profile(ex)
            for name in ("cost_us", "relay"):
                a, b = getattr(est, name), getattr(ref_est, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert est.budget_core == ref_est.budget_core
            _assert_same(obs, ref_obs)

    def test_solve_plan(self):
        """The LP on the T-8 shapes' draws, at budgets from zero to all-local."""
        for rng, ex, _ in _draws(9):
            relay = ex.relay
            costs = ex.cost_us * 1e-6 * float(rng.choice([1.0, rng.uniform(0.05, 20.0)]))
            full = float(np.sum(_ref_cumulative_relay(relay) * costs))
            budget = float(rng.choice([0.0, full, rng.uniform(0.0, 1.3) * full, 1e-12]))
            sol = solve_plan(relay, costs, budget)
            e, p, drained, compute = _ref_solve_plan(relay, costs, budget)
            assert sol.e.dtype == e.dtype and np.array_equal(sol.e, e)
            assert sol.p.dtype == p.dtype and np.array_equal(sol.p, p)
            assert sol.drained_frac == drained
            assert sol.compute_per_record == compute

    def test_classify_query(self):
        for rng, ex, p in _draws(3):
            obs = ex.execute(p)
            assert classify_query(obs, p) is _ref_classify_query(obs, p)
            # Counters near and at the thresholds, and custom thresholds.
            M = len(p)
            levels = np.array([0.0, 0.05, cm.DRAINED_THRES, 0.1000001, 0.5, 1.0])
            obs = EpochObservation(
                arrived=obs.arrived, forwarded=obs.forwarded, processed=obs.processed,
                drained=obs.drained, pending_frac=rng.choice(levels, M),
                idle_frac=rng.choice(levels, M), compute_used=0.0,
            )
            thres = dict(
                drained_thres=float(rng.choice(levels)), idle_thres=float(rng.choice(levels))
            )
            assert classify_query(obs, p, **thres) is _ref_classify_query(obs, p, **thres)

    def test_fine_tuner_helpers(self):
        for rng, ex, p in _draws(4):
            M = len(p)
            model = ProfileEstimates(
                cost_us=ex.cost_us * rng.uniform(0.5, 1.0, M),
                relay=ex.relay,
                budget_core=ex.budget_core,
            )
            tuner = FineTuner(
                relay=ex.relay, model=model, records_per_epoch=ex.records_per_epoch,
                kappa=float(rng.uniform(0.05, 20.0)),
            )
            assert np.array_equal(
                ffd_priority_order(ex.relay), _ref_ffd_priority_order(ex.relay)
            )
            for v in (*p.tolist(), float(rng.uniform(-0.5, 1.5))):
                expect = float(np.clip(round(v * tuner.grid) / tuner.grid, 0.0, 1.0))
                assert tuner._snap(v) == expect
            op = int(rng.integers(M))
            assert tuner._predicted_p(p, op) == _ref_predicted_p(tuner, p, op)
            obs = ex.execute(p)
            pending = float(np.max(obs.pending_frac))
            expect = _ref_kappa(tuner, p, obs.compute_used, pending)
            tuner.update_kappa(p, obs.compute_used, pending)
            assert tuner.kappa == expect

    def test_throughput_model(self):
        """The table simulator's demand and traffic, M from 1 to 6."""
        rng = np.random.default_rng(7)
        for _ in range(N_DRAWS):
            M = int(rng.integers(1, 7))
            sizes = rng.uniform(8.0, 200.0, M)
            spec = WorkloadSpec(
                name="draw",
                cost_us=rng.uniform(0.05, 40.0, M) * (rng.random(M) < 0.9),
                relay=np.where(rng.random(M) < 0.3, 1.0, rng.uniform(0.0, 1.0, M)),
                stage_bytes=sizes,
                record_bytes=float(sizes[0]),
                output_bytes_per_record=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                offered_mbps=26.2,
            )
            p = _draw_p(rng, M)
            x = float(rng.choice([0.0, 26.2, rng.uniform(0.0, 60.0)]))
            bulk = bool(rng.integers(2))
            assert spec.unit_demand_us(p) == _ref_unit_demand_us(spec, p)
            assert spec.traffic_mbps(x, p, bulk_boundary=bulk) == _ref_traffic_mbps(
                spec, x, p, bulk
            )

    def test_ffd_ties(self):
        relay = np.array([0.5, 0.1, 0.5, 0.1, 1.0, 0.5])
        assert np.array_equal(ffd_priority_order(relay), _ref_ffd_priority_order(relay))

    def test_opcount_sweep_pinned(self):
        assert sweep_operator_counts([2, 3], max_configs=600) == [
            OpCountResult(n_ops=2, worst_epochs=10, mean_epochs=8.25925925925926, n_configs=324),
            OpCountResult(n_ops=3, worst_epochs=22, mean_epochs=14.586666666666666, n_configs=600),
        ]


class TestInvariants:
    def test_conservation_budget_and_pending(self):
        for _, ex, p in _draws(5):
            obs = ex.execute(p)
            np.testing.assert_allclose(obs.processed + obs.drained, obs.arrived, rtol=1e-9, atol=0)
            assert obs.compute_used <= ex.budget_core * ex.epoch_s
            assert np.all((obs.pending_frac >= 0.0) & (obs.pending_frac <= 1.0))
            assert np.all((obs.idle_frac >= 0.0) & (obs.idle_frac <= 1.0))

    def test_shared_function_on_integer_counters(self):
        rng = np.random.default_rng(6)
        for _ in range(N_DRAWS):
            M = int(rng.integers(1, 6))
            fwd = rng.integers(0, 40_000, M).astype(float).tolist()
            drn = rng.integers(0, 40_000, M).astype(float).tolist()
            budget_s = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            obs = epoch_observation(
                [f + d for f, d in zip(fwd, drn)], fwd, drn,
                rng.uniform(0.0, 40.0, M).tolist(), budget_s, sum,
            )
            np.testing.assert_allclose(obs.processed + obs.drained, obs.arrived, rtol=1e-9, atol=0)
            assert obs.compute_used <= budget_s
            assert np.all((obs.pending_frac >= 0.0) & (obs.pending_frac <= 1.0))
            assert obs.drained_bytes == sum(obs.drained.tolist())


class TestRetainedMemory:
    def test_stable_epochs_hold_no_memory(self):
        """Twice as many stable epochs leave no more memory allocated."""
        runtimes = []
        for kind in ("log", "s2s", "t2t"):
            ex = fig8.executor(kind, 0.5)
            rt = JarvisRuntime(ex, len(ex.relay), relay_hint=ex.relay)
            rt.run_until_stable(80)
            runtimes.append(rt)

        def retained(n_epochs):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(n_epochs):
                    for rt in runtimes:
                        rep = rt.run_epoch()
                        assert rep.state is QueryState.STABLE
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        retained(100)  # warm-up: first-call allocations
        n = 500
        # One pointer per epoch kept anywhere would be 8 * 3 * n bytes more.
        assert retained(2 * n) - retained(n) < 8 * n


class TestZeroBudget:
    @pytest.mark.parametrize("kind", ["log", "s2s", "t2t"])
    @pytest.mark.parametrize("mode", ["jarvis", "lp_only", "no_lp"])
    @pytest.mark.parametrize("start", ["startup", "drop"])
    def test_reaches_stable_all_drain_plan(self, kind, mode, start):
        ex = fig8.executor(kind, 0.5 if start == "drop" else 0.0)
        rt = JarvisRuntime(ex, len(ex.relay), mode=mode, relay_hint=ex.relay)
        if start == "drop":
            rt.run_until_stable(60)
            ex.budget_core = 0.0
        reps = rt.run_until_stable(10)
        last = reps[-1]
        assert last.state is QueryState.STABLE
        assert last.p[0] == 0.0
        assert last.obs.compute_used == 0.0
