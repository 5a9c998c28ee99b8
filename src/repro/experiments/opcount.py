"""T-8d: convergence cost of the model-agnostic search vs operator count."""
from __future__ import annotations

from repro.core.convergence_sim import sweep_operator_counts


def run() -> list[dict]:
    res = sweep_operator_counts([2, 3, 4], max_configs=2000)
    return [
        {
            "n_ops": r.n_ops,
            "worst_epochs": r.worst_epochs,
            "mean_epochs": round(r.mean_epochs, 2),
            "n_configs": r.n_configs,
        }
        for r in res
    ]
