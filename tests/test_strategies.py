"""Strategy tests pinning the paper's Fig. 7 qualitative claims."""
import numpy as np
import pytest

from repro.core import costmodel as cm
from repro.cluster.spec import spec_from_costs
from repro.strategies.base import Strategy
from repro.strategies.best_op import BestOp
from repro.strategies.jarvis import Jarvis
from repro.strategies.lb_dp import LoadBalanceDP
from repro.strategies.static import AllSP, AllSrc, FilterSrc

CAP = cm.PER_QUERY_CAP_MBPS


@pytest.fixture(scope="module")
def s2s():
    return spec_from_costs(cm.s2s_costs(), np.array([1.0, 0.86, 0.03]), 0.12, 26.2)


@pytest.fixture(scope="module")
def t2t():
    return spec_from_costs(
        cm.t2t_costs(500), np.array([1.0, 0.86, 1.0, 1.0, 0.02]), 0.05, 26.2
    )


@pytest.fixture(scope="module")
def logq():
    return spec_from_costs(cm.log_costs(), np.array([1.0, 0.9, 1.0, 0.08]), 0.07, 49.6)


class TestAllSP:
    def test_network_bound_regardless_of_cpu(self, s2s):
        """Paper: 'All-SP is restricted by available network bandwidth, and
        thus its throughput does not change with available CPU.'"""
        outs = [AllSP().evaluate(s2s, b, CAP) for b in (0.2, 0.6, 1.0)]
        assert len({o.throughput_mbps for o in outs}) == 1
        assert outs[0].throughput_mbps == pytest.approx(CAP)

    def test_uses_no_source_compute(self, s2s):
        out = AllSP().evaluate(s2s, 0.5, CAP)
        assert out.compute_core == pytest.approx(0.0, abs=1e-6)


class TestAllSrc:
    def test_linear_degradation(self, s2s):
        """Throughput scales with budget below the ~85% full demand."""
        t40 = AllSrc().evaluate(s2s, 0.4, CAP).throughput_mbps
        t80 = AllSrc().evaluate(s2s, 0.8, CAP).throughput_mbps
        assert t80 == pytest.approx(2 * t40, rel=0.02)

    def test_full_budget_handles_s2s(self, s2s):
        assert AllSrc().evaluate(s2s, 1.0, CAP).throughput_mbps == pytest.approx(26.2)

    def test_t2t_cannot_handle_even_full_core(self, t2t):
        """Paper: 'All-Src cannot handle the input rate even at 100% CPU.'"""
        assert AllSrc().evaluate(t2t, 1.0, CAP).throughput_mbps < 0.7 * 26.2

    def test_negligible_traffic(self, s2s):
        out = AllSrc().evaluate(s2s, 1.0, CAP)
        assert out.traffic_mbps < 0.1 * 26.2


class TestFilterSrc:
    def test_network_bound_low_filter_out(self, s2s):
        """F drops only 14%: the boundary stream exceeds the allowance."""
        out = FilterSrc().evaluate(s2s, 0.8, CAP)
        assert out.throughput_mbps < 26.2
        assert out.traffic_mbps == pytest.approx(CAP, rel=0.02)

    def test_flat_across_budgets_once_affordable(self, s2s):
        t = [FilterSrc().evaluate(s2s, b, CAP).throughput_mbps for b in (0.2, 0.6, 1.0)]
        assert max(t) - min(t) < 0.01


class TestBestOp:
    def test_s2s_full_prefix_only_at_100(self, s2s):
        """Paper: 'Best-OP executes F and G+R on data source only at 100%.
        For lower CPU budgets ... runs only F.'"""
        p100 = BestOp().plan(s2s, 1.0)
        p80 = BestOp().plan(s2s, 0.8)
        assert p100 == pytest.approx([1, 1, 1])
        assert p80 == pytest.approx([1, 1, 0])

    def test_t2t_join_never_fits(self, t2t):
        """Paper: 'Best-OP cannot accommodate J operator even at 100% CPU.'"""
        assert BestOp().plan(t2t, 1.0) == pytest.approx([1, 1, 0, 0, 0])

    def test_log_map_fits_at_40(self, logq):
        """Paper: 'Best-OP can perform the filter and map operators at the
        source, thus outperforming Filter-Src.'"""
        p40 = BestOp().plan(logq, 0.4)
        assert p40[:3] == pytest.approx([1, 1, 1])
        t_best = BestOp().evaluate(logq, 0.4, CAP).throughput_mbps
        t_filter = FilterSrc().evaluate(logq, 0.4, CAP).throughput_mbps
        assert t_best > 1.5 * t_filter

    def test_tiny_budget_degrades_to_all_sp(self, s2s):
        p = BestOp().plan(s2s, 0.001)
        assert p == pytest.approx([0, 0, 0])


class TestLBDP:
    def test_ships_most_input_raw(self, s2s):
        """Paper: LB-DP balances load toward the big SP node, generating
        high network traffic."""
        out = LoadBalanceDP().evaluate(s2s, 0.6, CAP)
        assert out.traffic_mbps > 0.8 * out.throughput_mbps

    def test_throughput_grows_with_budget(self, s2s):
        t = [LoadBalanceDP().evaluate(s2s, b, CAP).throughput_mbps for b in (0.2, 0.6, 1.0)]
        assert t[0] < t[1] < t[2]


class TestJarvis:
    @pytest.mark.parametrize("budget", [0.2, 0.4, 0.6, 0.8, 1.0])
    def test_s2s_sustains_full_rate(self, s2s, budget):
        out = Jarvis().evaluate(s2s, budget, CAP)
        assert out.throughput_mbps == pytest.approx(26.2, rel=0.01)

    def test_respects_budget(self, s2s):
        for b in (0.1, 0.3, 0.7):
            out = Jarvis().evaluate(s2s, b, CAP)
            assert out.compute_core <= b + 1e-6

    def test_respects_network_cap(self, t2t):
        out = Jarvis().evaluate(t2t, 0.2, 10.0)
        assert out.traffic_mbps <= 10.0 + 1e-6


class TestFig7HeadlineClaims:
    """The paper's quantitative Fig. 7 comparisons, as shape assertions."""

    def all(self, spec, budget) -> dict[str, float]:
        strats: list[Strategy] = [AllSP(), AllSrc(), FilterSrc(), BestOp(), LoadBalanceDP(), Jarvis()]
        return {s.name: s.evaluate(spec, budget, CAP).throughput_mbps for s in strats}

    def test_s2s_jarvis_wins_40_to_80(self, s2s):
        for b in (0.4, 0.6, 0.8):
            t = self.all(s2s, b)
            assert t["Jarvis"] == max(t.values())

    def test_s2s_factors_at_60(self, s2s):
        t = self.all(s2s, 0.6)
        # Paper: 2.6x over All-Src, 1.16x over LB-DP (ours: linear
        # All-Src degradation gives a smaller but >1 factor).
        assert t["Jarvis"] / t["All-Src"] > 1.3
        assert t["Jarvis"] / t["LB-DP"] > 1.05

    def test_t2t_44x_over_allsrc_at_40(self, t2t):
        t = self.all(t2t, 0.4)
        assert t["Jarvis"] / t["All-Src"] == pytest.approx(4.4, rel=0.15)

    def test_t2t_beats_bestop_60_to_100(self, t2t):
        for b in (0.6, 0.8, 1.0):
            t = self.all(t2t, b)
            assert t["Jarvis"] / t["Best-OP"] > 1.05  # paper: 1.2x

    def test_log_23x_over_allsp(self, logq):
        for b in (0.4, 0.6, 1.0):
            t = self.all(logq, b)
            assert t["Jarvis"] / t["All-SP"] == pytest.approx(2.42, rel=0.05)  # paper: 2.3x

    def test_log_beats_bestop_and_lbdp_at_20(self, logq):
        t = self.all(logq, 0.2)
        assert t["Jarvis"] / t["Best-OP"] > 1.4  # paper: 1.5x
        assert t["Jarvis"] / t["LB-DP"] > 1.4
