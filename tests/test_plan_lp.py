"""Tests for the Eq. 3 data-level partitioning LP."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.plan_lp import (
    brute_force_plan,
    cumulative_relay,
    e_to_p,
    solve_plan,
)


def test_cumulative_relay():
    R = cumulative_relay(np.array([0.5, 0.2, 1.0]))
    assert R == pytest.approx([1.0, 0.5, 0.1])


def test_e_to_p_simple():
    p = e_to_p(np.array([1.0, 0.5, 0.25]))
    assert p == pytest.approx([1.0, 0.5, 0.5])


def test_e_to_p_zero_upstream():
    p = e_to_p(np.array([0.0, 0.0]))
    assert p == pytest.approx([0.0, 0.0])


def test_unconstrained_budget_runs_everything_locally():
    sol = solve_plan(np.array([0.9, 0.1]), np.array([1.0, 5.0]), budget_per_record=100.0)
    assert sol.e == pytest.approx([1.0, 1.0])
    assert sol.p == pytest.approx([1.0, 1.0])
    assert sol.drained_frac == pytest.approx(0.0)


def test_zero_budget_drains_everything():
    sol = solve_plan(np.array([0.9, 0.1]), np.array([1.0, 5.0]), budget_per_record=0.0)
    assert sol.e == pytest.approx([0.0, 0.0])
    # Everything drains at proxy 1: one record per record.
    assert sol.drained_frac == pytest.approx(1.0)


def test_budget_exactly_first_operator():
    # Budget fits exactly F (cost 1); remaining drains after F.
    r = np.array([0.5, 1.0])
    c = np.array([1.0, 10.0])
    sol = solve_plan(r, c, budget_per_record=1.0)
    # e1=1 costs 1.0, leaving nothing for op2: but op2 processing reduces
    # drains (r2=1 means no reduction) so LP is indifferent about e2 given
    # zero leftover budget; check feasibility + drained value.
    assert sol.compute_per_record <= 1.0 + 1e-9
    # Drained = (1 - e1) + 0.5*(e1 - e2); with e1 = 1, e2 = 0 -> 0.5.
    assert sol.drained_frac == pytest.approx(0.5, abs=1e-6)


def test_prefers_high_reduction_operator():
    """With a tight budget the LP must spend compute where data reduction
    per unit cost is best (the F operator here)."""
    r = np.array([0.1, 1.0])  # op1 filters out 90%, op2 reduces nothing
    c = np.array([1.0, 1.0])
    sol = solve_plan(r, c, budget_per_record=0.5)
    # Optimal is the balanced subset plan e1 = e2 = 0.5/1.1 (drained
    # 0.545), strictly better than spending everything on op1 (0.55).
    assert sol.e == pytest.approx([0.5 / 1.1, 0.5 / 1.1], abs=1e-6)
    assert sol.drained_frac == pytest.approx(1 - 0.5 / 1.1, abs=1e-6)


def test_respects_chain_constraint():
    sol = solve_plan(
        np.array([1.0, 0.0]), np.array([5.0, 0.1]), budget_per_record=1.0
    )
    assert sol.e[1] <= sol.e[0] + 1e-9


def test_s2sprobe_shape():
    """S2SProbe-like instance: W (free), F (cheap, r=0.86), G+R (expensive,
    r~0). At 80% of the budget needed for everything, F runs fully and G+R
    partially — the paper's data-level partitioning example (Fig. 3)."""
    r = np.array([1.0, 0.86, 0.01])
    c = np.array([0.2e-6, 3.4e-6, 22.0e-6])
    full = float(np.sum(cumulative_relay(r) * c))
    sol = solve_plan(r, c, budget_per_record=0.8 * full)
    # The record-minimizing LP picks the balanced subset plan
    # e = (0.8, 0.8, 0.8): drained 0.2, slightly better than running F on
    # everything and G+R on 76% (drained ~0.206).
    assert sol.e == pytest.approx([0.8, 0.8, 0.8], abs=1e-6)
    assert sol.drained_frac == pytest.approx(0.2, abs=1e-6)
    # G+R still processes a large fraction of its input locally.
    assert 0.5 < sol.e[2] < 1.0
    assert sol.drained_frac < 0.86  # better than draining all F output


@pytest.mark.parametrize("budget_frac", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5])
def test_matches_brute_force_s2s(budget_frac):
    r = np.array([0.86, 0.05])
    c = np.array([3.4, 22.0])
    full = float(np.sum(cumulative_relay(r) * c))
    b = budget_frac * full
    sol = solve_plan(r, c, b)
    _, best = brute_force_plan(r, c, b, grid=25)
    assert sol.drained_frac <= best + 1e-6
    assert sol.compute_per_record <= b + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 3),
    seed=st.integers(0, 100_000),
    frac=st.floats(0.0, 1.2),
)
def test_matches_brute_force_random(m, seed, frac):
    """LP optimum is never worse than exhaustive monotone grid search."""
    g = np.random.default_rng(seed)
    r = g.uniform(0.0, 1.0, m)
    c = g.uniform(0.1, 10.0, m)
    full = float(np.sum(cumulative_relay(r) * c))
    b = frac * full
    sol = solve_plan(r, c, b)
    _, best = brute_force_plan(r, c, b, grid=10)
    assert sol.drained_frac <= best + 1e-6
    assert sol.compute_per_record <= b + 1e-9
    assert np.all(sol.e >= -1e-9) and np.all(sol.e <= 1 + 1e-9)
    assert np.all(np.diff(sol.e) <= 1e-9)


def test_tiny_costs_stay_within_budget():
    """At 1e-9 s per record an absolute 1e-9 tolerance would allow e = [1],
    ten times the budget; the exact plan runs a tenth of the records."""
    sol = solve_plan(np.array([1.0]), np.array([1e-9]), 1e-10)
    assert sol.e == pytest.approx([0.1], rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 4),
    seed=st.integers(0, 100_000),
    log_unit=st.floats(-12.0, 0.0),
    frac=st.floats(0.0, 1.3),
)
def test_plan_fits_budget_at_any_cost_scale(m, seed, log_unit, frac):
    """No plan exceeds its budget, whatever the cost unit, and none drains
    more than the grid search finds."""
    g = np.random.default_rng(seed)
    r = np.where(g.random(m) < 0.3, 1.0, g.uniform(0.0, 1.0, m))
    unit = 10.0**log_unit
    c = np.where(g.random(m) < 0.1, 0.0, g.uniform(0.0, 1.0, m)) * unit
    R = cumulative_relay(r)
    b = frac * float(np.sum(R * c))
    sol = solve_plan(r, c, b)
    assert sol.compute_per_record <= b * (1 + 1e-9)
    assert float(np.sum(R * c * sol.e)) <= b * (1 + 1e-9)
    assert np.all((sol.e >= 0.0) & (sol.e <= 1.0))
    assert np.all(np.diff(sol.e) <= 0.0)
    _, best = brute_force_plan(r, c, b, grid=8)
    assert sol.drained_frac <= best + 1e-6


def test_brute_force_slack_is_relative_to_budget():
    """At zero budget the grid search runs nothing locally, however cheap."""
    e, drained = brute_force_plan(np.array([1.0]), np.array([1e-13]), 0.0)
    assert e.tolist() == [0.0]
    assert drained == 1.0


def test_validation_errors():
    with pytest.raises(ValueError):
        solve_plan(np.array([0.5]), np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        solve_plan(np.array([1.5]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        solve_plan(np.array([0.5]), np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        solve_plan(np.array([0.5]), np.array([1.0]), -1.0)


def test_empty_pipeline():
    sol = solve_plan(np.zeros(0), np.zeros(0), 1.0)
    assert sol.e.shape == (0,)
    assert sol.drained_frac == 0.0
