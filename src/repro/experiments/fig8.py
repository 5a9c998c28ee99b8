"""T-8 (paper Fig. 8): convergence epochs after resource changes.

Runs the real Jarvis runtime (all three §VI-C variants) against the
simulated epoch executor with the paper's scenarios:

* S2SProbe: 10% -> 90% -> 60% CPU;
* T2TProbe: 10% -> 100% CPU, then static table grows 10x;
* LogAnalytics: 5% -> 30% -> 15% CPU (same trend as S2S).

Convergence is the paper's metric: non-stable epochs after the 3-epoch
detection delay; "no-conv" marks runs that never restabilize (LP-only
under biased profiling).
"""
from __future__ import annotations

import numpy as np

from repro.core.costmodel import join_cost_us, log_costs, s2s_costs, t2t_costs
from repro.core.executor import SimulatedEpochExecutor
from repro.core.proxy import QueryState
from repro.core.runtime import JarvisRuntime

MODES = ("jarvis", "lp_only", "no_lp")


#: Per query: its cost model, and the relay ratios and records per epoch
#: of the T-8 runs. Group+Reduce is the last operator of each.
_SHAPES = {
    "s2s": (s2s_costs, [1.0, 0.86, 0.02], 38081.0),
    "t2t": (t2t_costs, [1.0, 0.86, 1.0, 1.0, 0.05], 38081.0),
    "log": (log_costs, [1.0, 0.9, 1.0, 0.1], 48437.0),
}


def executor(kind: str, budget: float) -> SimulatedEpochExecutor:
    """The simulated T-8 executor of query ``kind`` at ``budget`` cores."""
    query_costs, relay, records_per_epoch = _SHAPES[kind]
    costs = query_costs()
    return SimulatedEpochExecutor(
        cost_us=np.array(costs.cost_us),
        relay=np.array(relay),
        stage_bytes=np.array(costs.stage_bytes, dtype=float),
        budget_core=budget,
        records_per_epoch=records_per_epoch,
        group_reduce_idx=(len(relay) - 1,),
    )


def _measure(rt: JarvisRuntime, max_epochs: int = 40) -> tuple[int | None, bool]:
    reps = rt.run_until_stable(max_epochs)
    nonstable = sum(1 for r in reps if r.state is not QueryState.STABLE)
    converged = reps[-1].state is QueryState.STABLE
    return (max(0, nonstable - rt.detect_epochs) if converged else None, converged)


def run() -> list[dict]:
    rows: list[dict] = []
    scenarios = {
        "s2s": (0.10, [("10%->90% CPU", ("budget", 0.90)), ("90%->60% CPU", ("budget", 0.60))]),
        "t2t": (0.10, [("10%->100% CPU", ("budget", 1.00)), ("table x10", ("table", 5000))]),
        "log": (0.05, [("5%->30% CPU", ("budget", 0.30)), ("30%->15% CPU", ("budget", 0.15))]),
    }
    for kind, (budget0, changes) in scenarios.items():
        for mode in MODES:
            ex = executor(kind, budget0)
            rt = JarvisRuntime(ex, len(ex.cost_us), mode=mode, relay_hint=ex.relay)
            rt.run_until_stable(80)  # warm-up to the initial stable plan
            for label, (what, value) in changes:
                if what == "budget":
                    ex.budget_core = value
                else:
                    ex.cost_us = ex.cost_us.copy()
                    ex.cost_us[2] = join_cost_us(value)
                epochs, converged = _measure(rt)
                rows.append(
                    {
                        "query": kind,
                        "change": label,
                        "mode": mode,
                        "epochs_after_detect": epochs if converged else "no-conv",
                    }
                )
    return rows
