"""Exhaustive convergence-cost simulator (paper §VI-C, op-count study).

The paper analyzes how the *model-agnostic* search (w/o LP-init) scales
with the number of query operators: an exhaustive sweep over execution
configurations (operator costs, relay ratios, compute budgets),
measuring the number of epochs the fine-tuner needs to restabilize a
query from scratch.  It reports up to 21 epochs in the worst case with
four operators — the argument for keeping the LP in the design.  The
3-epoch detection delay is not counted (same as the paper's simulator),
and profiling-estimate errors are not modelled (LP-init would converge
within one epoch, so only the model-agnostic search is swept).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.executor import SimulatedEpochExecutor
from repro.core.proxy import QueryState, classify_query
from repro.core.stepwise import FineTuner

#: Records per epoch of every swept configuration: one S2SProbe source at
#: the 10x rate, as in T-8.
RECORDS_PER_EPOCH = 38081.0


def convergence_epochs(
    cost_us: np.ndarray,
    relay: np.ndarray,
    budget_core: float,
    *,
    start_p: np.ndarray | None = None,
    max_epochs: int = 200,
) -> int:
    """Epochs the pure binary-search fine-tuner needs to reach stability.

    Starts from ``start_p`` (default: all-zero, the paper's simulator
    initialisation) and counts executed epochs until the query
    classifies stable; returns ``max_epochs`` if it never does.
    """
    cost_us = np.asarray(cost_us, dtype=float)
    relay = np.asarray(relay, dtype=float)
    ex = SimulatedEpochExecutor(
        cost_us=cost_us,
        relay=relay,
        stage_bytes=np.full(len(cost_us), 86.0),
        budget_core=budget_core,
        records_per_epoch=RECORDS_PER_EPOCH,
    )
    tuner = FineTuner(relay=relay)
    p = np.zeros(len(cost_us)) if start_p is None else np.asarray(start_p, float).copy()
    for epoch in range(1, max_epochs + 1):
        obs = ex.execute(p)
        state = classify_query(obs, p)
        if state is QueryState.STABLE:
            return epoch - 1  # epochs *before* stability
        nxt = tuner.next_p(p, state)
        if nxt is None:
            return epoch  # out of moves while unstable: count the attempt
        p = nxt
    return max_epochs


@dataclass(frozen=True)
class OpCountResult:
    n_ops: int
    worst_epochs: int
    mean_epochs: float
    n_configs: int


def sweep_operator_counts(
    op_counts: list[int],
    *,
    cost_levels: tuple[float, ...] = (1.0, 5.0, 20.0),
    relay_levels: tuple[float, ...] = (0.1, 0.5, 0.9),
    budget_levels: tuple[float, ...] = (0.1, 0.3, 0.6, 0.9),
    max_configs: int = 4000,
) -> list[OpCountResult]:
    """Exhaustive sweep of configurations per operator count.

    For each M, enumerates cost x relay assignments per operator (cross
    product, truncated at ``max_configs``) under each budget, and runs
    :func:`convergence_epochs` from all-zero load factors.
    """
    results = []
    for m in op_counts:
        combos = itertools.product(
            itertools.product(cost_levels, repeat=m),
            itertools.product(relay_levels, repeat=m),
            budget_levels,
        )
        worst, total, n = 0, 0, 0
        for costs, relays, budget in itertools.islice(combos, max_configs):
            e = convergence_epochs(np.array(costs), np.array(relays), budget)
            worst = max(worst, e)
            total += e
            n += 1
        results.append(
            OpCountResult(n_ops=m, worst_epochs=worst, mean_epochs=total / n, n_configs=n)
        )
    return results
