"""Unit tests for the simulated epoch executor and flow model."""
import numpy as np
import pytest

from repro.core.executor import SimulatedEpochExecutor, planned_flow


def s2s_executor(budget=0.85, records=38081.0, **kw):
    return SimulatedEpochExecutor(
        cost_us=np.array([0.2, 3.4, 22.0]),
        relay=np.array([1.0, 0.86, 0.02]),
        stage_bytes=np.array([86.0, 86.0, 86.0]),
        budget_core=budget,
        records_per_epoch=records,
        group_reduce_idx=(2,),
        **kw,
    )


class TestFlowCounts:
    def test_all_forwarded(self):
        arrived, fwd, dr = planned_flow(100.0, [1.0, 1.0], [0.5, 1.0])
        assert arrived == pytest.approx([100, 50])
        assert fwd == pytest.approx([100, 50])
        assert dr == pytest.approx([0, 0])

    def test_all_drained_at_first_proxy(self):
        arrived, fwd, dr = planned_flow(100.0, [0.0, 0.0], [0.5, 1.0])
        assert dr == pytest.approx([100, 0])
        assert arrived == pytest.approx([100, 0])

    def test_partial_split(self):
        arrived, fwd, dr = planned_flow(100.0, [0.5, 0.5], [1.0, 1.0])
        assert fwd == pytest.approx([50, 25])
        assert dr == pytest.approx([50, 25])

    def test_conservation(self):
        """Drained + final output records account for every record."""
        p = [0.7, 0.3, 0.9]
        r = [0.8, 0.5, 1.0]
        arrived, fwd, dr = planned_flow(1000.0, p, r)
        # Every record either drains at some proxy or flows out of the end.
        out = fwd[-1] * r[-1]
        # Records "consumed" by relay reduction are legitimate (filtered).
        assert sum(dr) + out <= 1000 + 1e-9


class TestExecute:
    def test_within_budget_no_pending(self):
        ex = s2s_executor(budget=0.9)
        o = ex.execute(np.ones(3))
        assert np.all(o.pending_frac == 0)
        assert o.compute_used == pytest.approx(0.857 * 1.0, rel=0.05)

    def test_over_budget_pending(self):
        ex = s2s_executor(budget=0.4)
        o = ex.execute(np.ones(3))
        # demand ~0.857 core-s against 0.4: ~53% pending everywhere.
        assert np.all(o.pending_frac > 0.4)
        assert o.compute_used == pytest.approx(0.4)

    def test_idle_when_underutilized(self):
        ex = s2s_executor(budget=0.9)
        o = ex.execute(np.array([0.1, 1.0, 1.0]))
        assert np.all(o.idle_frac > 0.8)

    def test_zero_p_everything_drains_at_stage0(self):
        ex = s2s_executor()
        o = ex.execute(np.zeros(3))
        assert o.drained[0] == pytest.approx(38081.0)
        assert o.drained[1:] == pytest.approx([0, 0])
        # Stage-0 drain is bulk: no overhead applied.
        assert o.drained_bytes == pytest.approx(38081.0 * 86.0)

    def test_drain_overhead_applied_midpipeline(self):
        ex = s2s_executor(budget=10.0)
        o = ex.execute(np.array([1.0, 1.0, 0.0]))  # drain all at G+R proxy
        expect = 38081.0 * 0.86 * 86.0 * ex.drain_overhead
        assert o.drained_bytes == pytest.approx(expect, rel=1e-6)

    def test_output_bytes_added(self):
        ex = s2s_executor(budget=10.0, output_bytes_per_epoch=1234.0)
        o = ex.execute(np.ones(3))
        assert o.drained_bytes == pytest.approx(1234.0)


class TestProfile:
    def test_accurate_when_budget_ample(self):
        ex = s2s_executor(budget=4.0)  # 4 cores: everything profiles fully
        est, _ = ex.profile()
        assert est.cost_us == pytest.approx(ex.cost_us)
        assert est.relay == pytest.approx(ex.relay)
        assert est.budget_core == 4.0

    def test_cost_underestimated_when_budget_tight(self):
        ex = s2s_executor(budget=0.3)
        est, _ = ex.profile()
        # G+R (idx 2) cannot process its full sample within budget/3.
        assert est.cost_us[2] < ex.cost_us[2]
        # Cheap W/F are profiled much more accurately than G+R.
        assert est.cost_us[0] == pytest.approx(ex.cost_us[0], rel=0.05)
        rel_err = 1.0 - est.cost_us / ex.cost_us
        assert rel_err[1] < rel_err[2]

    def test_group_relay_overestimated_when_truncated(self):
        ex = s2s_executor(budget=0.3)
        est, _ = ex.profile()
        assert est.relay[2] > ex.relay[2]
        assert est.relay[2] <= 1.0

    def test_profile_epoch_drains_everything(self):
        ex = s2s_executor(budget=0.3)
        _, obs = ex.profile()
        assert obs.drained[0] == pytest.approx(ex.records_per_epoch)

    def test_bias_grows_as_budget_shrinks(self):
        e_lo, _ = s2s_executor(budget=0.1).profile()
        e_hi, _ = s2s_executor(budget=0.6).profile()
        assert e_lo.cost_us[2] < e_hi.cost_us[2]
        assert e_lo.relay[2] > e_hi.relay[2]
