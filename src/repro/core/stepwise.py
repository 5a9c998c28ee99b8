"""StepWise-Adapt: LP initialization + FFD-priority fine-tuning (§IV-D).

The algorithm has two halves:

1. **Model-based**: solve the Eq. 3 LP on the Profile phase's estimates
   (:func:`lp_initial_plan`) to get initial load factors.
2. **Model-agnostic**: observe the query state each epoch and fine-tune
   one load factor at a time (:class:`FineTuner`).  Operators are
   prioritized FFD-style by *data reduction*: lower relay ratio = higher
   priority.  When the query is idle the highest-priority operator's
   load factor is raised first (until p = 1); when congested the
   lowest-priority operator's is lowered first (until p = 0).  Each
   adjustment is a binary search over load factors discretized to a
   1/``grid`` lattice.

When profile estimates are available (Jarvis mode), the first probe of
each binary search is placed at the *model-predicted* stable value
instead of the interval midpoint, and a running correction factor
``kappa`` rescales the estimated costs from observed utilisation — this
is what lets Jarvis converge in 1-2 epochs where the pure
model-agnostic search needs 4-6 (Fig. 8).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import costmodel as cm
from repro.core.executor import ProfileEstimates, planned_flow
from repro.core.proxy import QueryState
from repro.lp.plan_lp import solve_plan

#: Utilisation aimed at by model-predicted probes: inside the stable band
#: (above ``1 - IDLE_THRES``, below congestion).
TARGET_UTIL = 0.97


def lp_initial_plan(
    est: ProfileEstimates,
    records_per_epoch: float,
    *,
    kappa: float = 1.0,
) -> np.ndarray:
    """Initial load factors from the Eq. 3 LP on profile estimates."""
    if records_per_epoch <= 0:
        return np.ones(len(est.cost_us))
    budget_per_record = est.budget_core * cm.EPOCH_SECONDS / records_per_epoch
    sol = solve_plan(
        est.relay, [c * 1e-6 * kappa for c in est.cost_us.tolist()], budget_per_record
    )
    return sol.p


def ffd_priority_order(relay: np.ndarray) -> list[int]:
    """Operator indices from highest to lowest priority.

    Priority is higher for lower relay ratio (more data reduction per
    processed record); ties break toward downstream operators, which
    see fewer records per unit of reduction.
    """
    relay = np.asarray(relay).tolist()
    return sorted(range(len(relay)), key=lambda i: (relay[i], -i))


@dataclass
class _Search:
    """Binary-search state for one operator's load factor."""

    op: int
    raising: bool
    lo: float
    hi: float
    hi_congested: bool = False
    first_probe: bool = True
    last_probe: float | None = None


@dataclass
class FineTuner:
    """Model-agnostic fine-tuning half of StepWise-Adapt.

    Attributes:
        relay: relay-ratio estimates used only for the FFD priorities.
        grid: load-factor lattice resolution (1/grid steps).
        model: optional profile estimates enabling model-predicted
            first probes (Jarvis mode); None = pure model-agnostic
            search (the paper's "w/o LP-init").
        records_per_epoch: epoch input size for demand prediction.
    """

    relay: np.ndarray
    grid: int = cm.P_GRID
    model: ProfileEstimates | None = None
    records_per_epoch: float = 0.0
    kappa: float = 1.0

    _search: _Search | None = field(default=None, init=False)
    _exhausted_raise: set[int] = field(default_factory=set, init=False)
    _exhausted_lower: set[int] = field(default_factory=set, init=False)
    _last_state: QueryState | None = field(default=None, init=False)
    _direction_flips: int = field(default=0, init=False)

    def _snap(self, v: float) -> float:
        return min(max(round(v * self.grid) / self.grid, 0.0), 1.0)

    # -- model-predicted probe -------------------------------------------------
    def update_kappa(self, p: np.ndarray, compute_used: float, pending_frac: float) -> None:
        """Correct estimated costs from one epoch's observed demand.

        ``compute_used`` is core-seconds actually burnt; when the epoch
        was congested, the true demand is ``used / (1 - pending_frac)``.
        """
        if self.model is None or self.records_per_epoch <= 0:
            return
        est_demand = self._demand(p.tolist())
        if est_demand <= 0:
            return
        actual = compute_used / max(1e-9, 1.0 - min(pending_frac, 0.99))
        self.kappa = min(max(actual / est_demand * self.kappa, 0.05), 20.0)

    def _demand(self, p: list[float]) -> float:
        """Estimated epoch compute demand (core-seconds) under ``p``."""
        assert self.model is not None
        _, fwd, _ = planned_flow(float(self.records_per_epoch), p, self.model.relay.tolist())
        demand = 0.0  # left to right from 0.0, as in epoch_observation
        for f, c in zip(fwd, self.model.cost_us.tolist()):
            demand += f * c * self.kappa
        return demand * 1e-6

    def _predicted_p(self, p: np.ndarray, op: int) -> float | None:
        """Solve for the op's load factor that hits the target utilisation."""
        if self.model is None or self.records_per_epoch <= 0:
            return None
        budget_s = self.model.budget_core * cm.EPOCH_SECONDS
        p0 = p.tolist()
        p0[op] = 0.0
        p1 = p0.copy()
        p1[op] = 1.0
        d0, d1 = self._demand(p0), self._demand(p1)
        if d1 - d0 <= 1e-12:
            return None
        x = (TARGET_UTIL * budget_s - d0) / (d1 - d0)
        return min(max(x, 0.0), 1.0)

    # -- search orchestration ----------------------------------------------------
    def _start_search(self, p: np.ndarray, state: QueryState) -> _Search | None:
        order = ffd_priority_order(self.relay)
        if state is QueryState.IDLE:
            for op in order:  # highest priority first
                if p[op] < 1.0 - 1e-9 and op not in self._exhausted_raise:
                    return _Search(op=op, raising=True, lo=float(p[op]), hi=1.0)
            return None
        for op in order[::-1]:  # lowest priority first
            if p[op] > 1e-9 and op not in self._exhausted_lower:
                return _Search(op=op, raising=False, lo=0.0, hi=float(p[op]))
        return None

    def next_p(self, p: np.ndarray, state: QueryState) -> np.ndarray | None:
        """Propose the next load-factor vector, or None when out of moves.

        Call once per non-stable epoch with the state observed under the
        *current* ``p``; returns a new vector to try next epoch.
        """
        p = np.array(p, dtype=float)
        if state is QueryState.STABLE:
            self._search = None
            return None
        if self._last_state is not None and state is not self._last_state:
            # Direction change: previously-exhausted ops become viable
            # again — but only a bounded number of times. When the
            # stable band is narrower than one grid step the search
            # would otherwise ping-pong between congested and idle
            # forever; after the cap we settle at the last non-congested
            # point (the DrainedThres/IdleThres tolerances absorb the
            # residual, as in the paper's control loop).
            self._direction_flips += 1
            if self._direction_flips > 2 * len(self.relay):
                return None
            (self._exhausted_raise if state is QueryState.IDLE else self._exhausted_lower).clear()
        self._last_state = state

        s = self._search
        if s is not None and s.last_probe is not None:
            # Fold the observed outcome of the last probe into the interval.
            if s.raising:
                if state is QueryState.CONGESTED:
                    s.hi, s.hi_congested = s.last_probe, True
                else:
                    s.lo = s.last_probe
            else:
                if state is QueryState.CONGESTED:
                    s.hi = s.last_probe
                else:
                    s.lo = s.last_probe
        if s is not None and (
            (s.raising and state is QueryState.CONGESTED and s.lo == 0.0 and s.hi <= 1.0 / self.grid)
        ):
            # A raise that immediately congests at the lowest step: give up on it.
            self._exhausted_raise.add(s.op)
            self._search = s = None

        if s is None:
            s = self._start_search(p, state)
            if s is None:
                return None
            self._search = s

        # Interval collapsed: settle and move on.
        if s.hi - s.lo <= 1.0 / self.grid + 1e-12:
            settle = s.hi if (s.raising and not s.hi_congested) else s.lo
            settle = self._snap(settle)
            (self._exhausted_raise if s.raising else self._exhausted_lower).add(s.op)
            self._search = None
            if abs(settle - p[s.op]) > 1e-12:
                p[s.op] = settle
                return p
            # Nothing changed — recurse to open the next op's search.
            return self.next_p(p, state)

        probe: float | None = None
        if s.first_probe:
            probe = self._predicted_p(p, s.op)
            s.first_probe = False
        if probe is None:
            probe = (s.lo + s.hi) / 2.0
        probe = self._snap(min(max(probe, s.lo), s.hi))
        if probe <= s.lo + 1e-12:
            probe = self._snap(s.lo + 1.0 / self.grid)
        if probe >= s.hi - 1e-12 and s.hi_congested:
            probe = self._snap(s.hi - 1.0 / self.grid)
        s.last_probe = probe
        p[s.op] = probe
        return p
