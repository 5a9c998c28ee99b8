"""Runtime state-machine tests, including the paper's Fig. 8 scenarios.

All tests run against the simulated executor (pure python, fast); the
assertions pin the *shape* of the paper's convergence results:
Jarvis <= w/o-LP-init epochs everywhere, LP-only diverging exactly where
the paper reports it diverging.
"""
import numpy as np
import pytest

from repro.core.costmodel import join_cost_us
from repro.core.executor import SimulatedEpochExecutor
from repro.core.proxy import QueryState
from repro.core.runtime import JarvisRuntime, Phase


def s2s_exec(budget):
    return SimulatedEpochExecutor(
        cost_us=np.array([0.2, 3.4, 22.0]),
        relay=np.array([1.0, 0.86, 0.02]),
        stage_bytes=np.array([86.0] * 3),
        budget_core=budget,
        records_per_epoch=38081.0,
        group_reduce_idx=(2,),
    )


def t2t_exec(budget, table=500):
    return SimulatedEpochExecutor(
        cost_us=np.array([0.2, 3.4, join_cost_us(table), 0.5, 10.7]),
        relay=np.array([1.0, 0.86, 1.0, 1.0, 0.05]),
        stage_bytes=np.array([86.0, 86.0, 86.0, 98.0, 24.0]),
        budget_core=budget,
        records_per_epoch=38081.0,
        group_reduce_idx=(4,),
    )


def after_detect_epochs(rt: JarvisRuntime, max_epochs=40):
    """Non-stable epochs beyond the 3 detection epochs (paper's metric).

    Returns (count, converged).
    """
    reps = rt.run_until_stable(max_epochs)
    ns = sum(1 for r in reps if r.state is not QueryState.STABLE)
    converged = reps[-1].state is QueryState.STABLE
    return max(0, ns - rt.detect_epochs), converged


class TestBasics:
    def test_startup_all_zero(self):
        rt = JarvisRuntime(s2s_exec(0.5), 3)
        assert rt.p == pytest.approx([0.0, 0.0, 0.0])
        assert rt.phase is Phase.PROBE

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            JarvisRuntime(s2s_exec(0.5), 3, mode="magic")

    def test_detection_hysteresis(self):
        """The runtime must tolerate DETECT_EPOCHS-1 non-stable epochs
        before entering Profile."""
        rt = JarvisRuntime(s2s_exec(0.5), 3, detect_epochs=3)
        r1 = rt.run_epoch()
        r2 = rt.run_epoch()
        assert r1.phase is Phase.PROBE and r2.phase is Phase.PROBE
        assert rt.phase is Phase.PROBE  # 2 < 3: still probing
        rt.run_epoch()
        assert rt.phase is Phase.PROFILE

    def test_startup_converges_all_modes(self):
        for mode in ("jarvis", "no_lp"):
            rt = JarvisRuntime(
                s2s_exec(0.85), 3, mode=mode, relay_hint=np.array([1.0, 0.86, 0.02])
            )
            reps = rt.run_until_stable(60)
            assert reps[-1].state is QueryState.STABLE, mode

    def test_stable_state_stays_stable(self):
        rt = JarvisRuntime(s2s_exec(0.95), 3)
        rt.run_until_stable(60)
        # Ten further epochs: no phase churn.
        for _ in range(10):
            rep = rt.run_epoch()
            assert rep.state is QueryState.STABLE
            assert rep.phase is Phase.PROBE

    def test_full_budget_runs_everything_locally(self):
        rt = JarvisRuntime(s2s_exec(1.0), 3)
        rt.run_until_stable(60)
        assert rt.p == pytest.approx([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("mode", ["jarvis", "lp_only"])
    def test_empty_profile_epoch_keeps_p(self, mode):
        """A Profile epoch that sees no records plans nothing: with no
        budget, ``p`` stays 0 and the runtime probes again."""
        ex = s2s_exec(0.5)
        rt = JarvisRuntime(ex, 3, mode=mode)
        for _ in range(rt.detect_epochs):  # idle at p = 0: detect, then profile
            rt.run_epoch()
        assert rt.phase is Phase.PROFILE
        ex.budget_core = 0.0
        ex.records_per_epoch = 0.0
        rep = rt.run_epoch()
        assert rep.phase is Phase.PROFILE
        assert rep.p == pytest.approx([0.0, 0.0, 0.0])
        assert rt.p == pytest.approx([0.0, 0.0, 0.0])
        assert rt.phase is Phase.PROBE


class TestFig8aS2S:
    """S2SProbe convergence (paper: Jarvis 1 then 2; w/o LP-init 6 then 4;
    LP-only converges on the budget increase, diverges on the decrease)."""

    def run_scenario(self, mode):
        ex = s2s_exec(0.10)
        rt = JarvisRuntime(ex, 3, mode=mode, relay_hint=ex.relay)
        rt.run_until_stable(60)
        ex.budget_core = 0.90
        up, up_ok = after_detect_epochs(rt)
        ex.budget_core = 0.60
        down, down_ok = after_detect_epochs(rt)
        return up, up_ok, down, down_ok

    def test_jarvis_fast(self):
        up, up_ok, down, down_ok = self.run_scenario("jarvis")
        assert up_ok and down_ok
        assert up <= 2  # paper: 1
        assert down <= 3  # paper: 2

    def test_no_lp_slower_than_jarvis(self):
        jup, _, jdown, _ = self.run_scenario("jarvis")
        up, up_ok, down, down_ok = self.run_scenario("no_lp")
        assert up_ok and down_ok
        assert up >= jup  # paper: 6 vs 1
        assert down >= jdown  # paper: 4 vs 2
        assert up <= 10

    def test_lp_only_converges_up_diverges_down(self):
        up, up_ok, down, down_ok = self.run_scenario("lp_only")
        assert up_ok  # paper: "LP only also stabilizes the query"
        assert not down_ok  # paper: "prevents LP only from stabilizing"


class TestFig8bT2T:
    """T2TProbe convergence under a budget jump then a 10x table growth
    (paper: Jarvis 7 then 3; w/o LP-init 11 then 5; LP-only diverges)."""

    def run_scenario(self, mode):
        ex = t2t_exec(0.10)
        rt = JarvisRuntime(ex, 5, mode=mode, relay_hint=ex.relay)
        rt.run_until_stable(60)
        ex.budget_core = 1.0
        up, up_ok = after_detect_epochs(rt)
        ex.cost_us = ex.cost_us.copy()
        ex.cost_us[2] = join_cost_us(5000)
        grow, grow_ok = after_detect_epochs(rt)
        return up, up_ok, grow, grow_ok

    def test_jarvis_converges(self):
        up, up_ok, grow, grow_ok = self.run_scenario("jarvis")
        assert up_ok and grow_ok
        assert up <= 8  # paper: 7
        assert grow <= 5  # paper: 3

    def test_no_lp_slower(self):
        jup, _, jgrow, _ = self.run_scenario("jarvis")
        up, up_ok, grow, grow_ok = self.run_scenario("no_lp")
        assert up_ok and grow_ok
        assert up >= jup  # paper: 11 vs 7
        assert grow >= jgrow  # paper: 5 vs 3

    def test_lp_only_diverges_both(self):
        up, up_ok, grow, grow_ok = self.run_scenario("lp_only")
        assert not up_ok  # paper: inaccurate join profiling
        # (after a failed first change the second is also unstable)


class TestFig8cLog:
    """LogAnalytics shows the same trends as S2S (paper §VI-C)."""

    def log_exec(self, budget):
        return SimulatedEpochExecutor(
            cost_us=np.array([0.1, 1.0, 3.5, 2.1]),
            relay=np.array([1.0, 0.9, 1.0, 0.1]),
            stage_bytes=np.array([128.0, 128.0, 128.0, 40.0]),
            budget_core=budget,
            records_per_epoch=48437.0,
            group_reduce_idx=(3,),
        )

    @pytest.mark.parametrize("mode", ["jarvis", "no_lp"])
    def test_converges(self, mode):
        ex = self.log_exec(0.05)
        rt = JarvisRuntime(ex, 4, mode=mode, relay_hint=ex.relay)
        rt.run_until_stable(60)
        ex.budget_core = 0.30
        up, ok = after_detect_epochs(rt)
        assert ok
        ex.budget_core = 0.15
        down, ok2 = after_detect_epochs(rt)
        assert ok2

    def test_jarvis_not_slower(self):
        results = {}
        for mode in ("jarvis", "no_lp"):
            ex = self.log_exec(0.05)
            rt = JarvisRuntime(ex, 4, mode=mode, relay_hint=ex.relay)
            rt.run_until_stable(60)
            ex.budget_core = 0.30
            results[mode] = after_detect_epochs(rt)[0]
        assert results["jarvis"] <= results["no_lp"]


class TestPaperHeadlineClaim:
    def test_stabilizes_within_seven_seconds(self):
        """'Jarvis converges to a stable query partition within seconds';
        §IV-E: 'requires up to seven seconds' with 1 s epochs, counting
        detection + profile + adapt."""
        for budget0, budget1, make in [
            (0.10, 0.90, s2s_exec),
            (0.90, 0.60, s2s_exec),
            (0.10, 1.00, t2t_exec),
        ]:
            ex = make(budget0)
            rt = JarvisRuntime(ex, len(ex.cost_us), mode="jarvis")
            rt.run_until_stable(60)
            ex.budget_core = budget1
            reps = rt.run_until_stable(40)
            nonstable = sum(1 for r in reps if r.state is not QueryState.STABLE)
            assert reps[-1].state is QueryState.STABLE
            assert nonstable <= 7
