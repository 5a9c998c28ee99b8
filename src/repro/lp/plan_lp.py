"""Eq. 3 of the paper: the data-level partitioning LP.

Builds and solves the linear program that StepWise-Adapt uses for its
model-based initialization step.  Variables are the *effective load
factors* ``e_i = prod_{j<=i} p_j`` (with ``e_0 = 1``), which linearize
the non-convex Eq. 2:

    minimize    sum_i R_{i-1} * (e_{i-1} - e_i)          (drained records)
    subject to  sum_i R_{i-1} * c_i * e_i <= C / N_r     (compute budget)
                0 <= e_i <= e_{i-1},   e_0 = 1

where ``R_k = prod_{j<=k} r_j`` is the cumulative relay ratio (``r_0=1``),
``c_i`` the per-record compute cost of operator ``i`` and ``C/N_r`` the
compute budget per injected record.

The LP is solved in closed form. Write ``d_k = e_k - e_{k+1}`` (with
``e_{M+1} = 0``) for the share of records whose *exit depth* is ``k``:
they run operators ``1..k`` locally and drain at proxy ``k+1``, or never
drain when ``k = M``.  Such a record costs ``C_k = sum_{i<=k} R_{i-1} c_i``
and drains weight ``D_k = R_k`` (``D_M = 0``).  In ``d`` the LP is

    minimize  sum_k D_k d_k   s.t.  sum_k C_k d_k <= C / N_r,
                                    sum_k d_k = 1,   d >= 0,

which has two constraints, so some optimal vertex puts all of ``d`` on
one depth or mixes two: the "balanced subset plans".  Checking every
such candidate is exact and needs no tolerance.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_EPS = 1e-9


@dataclass(frozen=True)
class PlanSolution:
    """LP output mapped back to the runtime's vocabulary.

    Attributes:
        e: effective load factors, one per operator (``e_0 = 1`` implicit).
        p: per-proxy load factors recovered via ``p_i = e_i / e_{i-1}``.
        drained_frac: predicted drained records per injected record.
        compute_per_record: predicted compute usage per injected record.
    """

    e: np.ndarray
    p: np.ndarray
    drained_frac: float
    compute_per_record: float


def cumulative_relay(relay_ratios: Sequence[float]) -> list[float]:
    """``R_k = prod_{j<=k} r_j`` for k = 0..M-1 (input side of op k+1).

    Multiplied left to right, as ``np.cumprod`` does.
    """
    R = [1.0]
    for r in relay_ratios[:-1]:
        R.append(R[-1] * r)
    return R


def e_to_p(e: Sequence[float]) -> list[float]:
    """Recover per-proxy load factors from effective load factors.

    Where an upstream proxy drains everything (``e_{i-1} ~ 0``) the
    downstream ``p`` is unconstrained; 0.0 is chosen so that a stale plan
    never over-subscribes compute if records unexpectedly reappear.
    """
    p, prev = [], 1.0
    for x in e:
        p.append(min(max(x / prev, 0.0), 1.0) if prev > _EPS else 0.0)
        prev = x
    return p


def solve_plan(
    relay_ratios: Sequence[float],
    costs: Sequence[float],
    budget_per_record: float,
) -> PlanSolution:
    """Solve the Eq. 3 LP for one query pipeline on one data source.

    The optimum is the lowest drained weight among (a) every single exit
    depth whose cost fits the budget and (b) every pair of depths, one
    within the budget and one above it that drains less, mixed so that
    the compute used is exactly the budget.  Ties go to the candidate
    that uses less compute.  It runs once per Profile epoch on a few
    operators, so it works on Python floats.

    Args:
        relay_ratios: ``r_i`` per operator (output/input record count),
            each in [0, 1] per the paper's constraint.
        costs: ``c_i`` per-record compute cost per operator (seconds,
            or any unit consistent with ``budget_per_record``).
        budget_per_record: ``C / N_r`` — compute budget available per
            record injected into the query during an epoch.

    Returns:
        PlanSolution with optimal ``e``, recovered ``p`` and predictions.
    """
    r = np.asarray(relay_ratios, dtype=float)
    c = np.asarray(costs, dtype=float)
    if r.shape != c.shape or r.ndim != 1:
        raise ValueError("relay_ratios and costs must be 1-D and same length")
    M = r.shape[0]
    if M == 0:
        return PlanSolution(
            e=np.zeros(0), p=np.zeros(0), drained_frac=0.0, compute_per_record=0.0
        )
    r_list, c_list = r.tolist(), c.tolist()
    if min(r_list) < -_EPS or max(r_list) > 1 + _EPS:
        raise ValueError("relay ratios must lie in [0, 1]")
    if min(c_list) < -_EPS:
        raise ValueError("costs must be non-negative")
    if budget_per_record < 0:
        raise ValueError("budget must be non-negative")

    budget = float(budget_per_record)
    # Depth points (C_k, D_k), k = 0..M.
    R = cumulative_relay(r_list)
    D = R + [0.0]
    C = [0.0]
    for Rk, ck in zip(R, c_list):
        C.append(C[-1] + Rk * ck)

    # Depths whose cost fits the budget and depths above it, in order.
    within, above = [], []
    for k, Ck in enumerate(C):
        (above if Ck > budget else within).append(k)
    # Best (drained, compute) so far, its depths j and k, and the share
    # lam of records at depth k (the rest exit at depth j).
    best, j_best, k_best, lam_best = (D[0], C[0]), 0, 0, 0.0
    for j in within:
        if (D[j], C[j]) < best:
            best, j_best, k_best, lam_best = (D[j], C[j]), j, j, 0.0
        for k in above:
            if D[k] < D[j]:
                lam = (budget - C[j]) / (C[k] - C[j])
                key = (D[j] + lam * (D[k] - D[j]), budget)
                if key < best:
                    best, j_best, k_best, lam_best = key, j, k, lam

    # e_i is the suffix sum of d past depth i: 1 above the shallower
    # depth, the deeper depth's share between the two, 0 below.
    if j_best <= k_best:
        lo, hi, deep = j_best, k_best, lam_best
    else:
        lo, hi, deep = k_best, j_best, 1.0 - lam_best
    e = [1.0] * lo + [min(max(deep, 0.0), 1.0)] * (hi - lo) + [0.0] * (M - hi)
    drained, compute = best
    return PlanSolution(
        e=np.array(e), p=np.array(e_to_p(e)), drained_frac=drained, compute_per_record=compute
    )


def brute_force_plan(
    relay_ratios: np.ndarray,
    costs: np.ndarray,
    budget_per_record: float,
    grid: int = 20,
) -> tuple[np.ndarray, float]:
    """Exhaustive grid search over ``e`` for verifying ``solve_plan``.

    Enumerates monotone ``e`` vectors on a uniform grid and returns the
    best feasible one with its drained objective. Feasibility allows a
    rounding slack relative to the budget, so it holds at any cost
    scale. Exponential in M — use only in tests with small M/grid.
    """
    r = np.asarray(relay_ratios, dtype=float)
    c = np.asarray(costs, dtype=float)
    M = r.shape[0]
    R = np.array(cumulative_relay(r.tolist()))
    levels = np.linspace(0.0, 1.0, grid + 1)
    best_e = np.zeros(M)
    best_obj = float(np.sum(R))  # e = 0 baseline: everything drains at proxy 1.

    def rec(i: int, prefix: list[float]) -> None:
        nonlocal best_e, best_obj
        if i == M:
            e = np.array(prefix)
            if float(np.sum(R * c * e)) > budget_per_record * (1 + 1e-9):
                return
            prev = np.concatenate(([1.0], e[:-1]))
            obj = float(np.sum(R * (prev - e)))
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_e = e
            return
        cap = prefix[-1] if prefix else 1.0
        for v in levels:
            if v <= cap + 1e-12:
                rec(i + 1, prefix + [float(v)])

    rec(0, [])
    return best_e, best_obj
