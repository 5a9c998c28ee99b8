"""Jarvis runtime: the per-query, per-source control state machine (§IV-C).

Fully decentralized — one instance per query instance per data source,
interacting only with its local control proxies (here: the epoch
executor).  Phases, per Fig. 6 of the paper:

* **Startup** — all load factors zero; everything drains to the SP.
* **Probe** — execute epochs; ProbeCP classifies the query each epoch.
  ``DETECT_EPOCHS`` consecutive non-stable epochs (hysteresis against
  scheduling noise) trigger Profile.
* **Profile** — one epoch spent estimating operator costs, relay ratios
  and the available budget (estimates may be biased when the budget is
  too small to profile an expensive operator fully).
* **Adapt** — apply the LP initial plan, then fine-tune with the
  FFD-priority binary search until the query is stable again.

``mode`` selects the paper's three §VI-C variants: ``jarvis`` (LP init
+ fine-tuning), ``lp_only`` (LP init, no fine-tuning) and ``no_lp``
(fine-tuning from the current factors, no model).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core import costmodel as cm
from repro.core.proxy import EpochObservation, QueryState, classify_query
from repro.core.stepwise import FineTuner, lp_initial_plan


class Phase(enum.Enum):
    PROBE = "probe"
    PROFILE = "profile"
    ADAPT = "adapt"


@dataclass(slots=True)
class EpochReport:
    """One epoch's outcome as seen by the runtime.

    Built every epoch, so slotted and not frozen, as
    :class:`EpochObservation` is.
    """

    epoch: int
    phase: Phase
    state: QueryState
    p: np.ndarray
    obs: EpochObservation


class JarvisRuntime:
    """Drives one query instance on one data source.

    Args:
        executor: epoch executor (simulated or Spark-backed).
        n_ops: number of operators in the pipeline.
        mode: 'jarvis' | 'lp_only' | 'no_lp'.
        relay_hint: relay ratios used for FFD priorities in 'no_lp'
            mode, where no Profile estimates exist (a real deployment
            observes these from proxy counters; experiments pass the
            pipeline's measured ratios).
        detect_epochs: consecutive non-stable epochs before adapting.
    """

    def __init__(
        self,
        executor,
        n_ops: int,
        *,
        mode: str = "jarvis",
        relay_hint: np.ndarray | None = None,
        detect_epochs: int = cm.DETECT_EPOCHS,
    ) -> None:
        if mode not in ("jarvis", "lp_only", "no_lp"):
            raise ValueError(f"unknown mode {mode!r}")
        self.executor = executor
        self.n_ops = n_ops
        self.mode = mode
        self.relay_hint = relay_hint
        self.detect_epochs = detect_epochs

        self.p = np.zeros(n_ops)  # Startup: everything to the SP
        self.phase = Phase.PROBE
        self.epoch = 0
        self._nonstable_streak = 0
        self._tuner: FineTuner | None = None
        #: lp_only: adapt epochs spent on the current LP plan before
        #: falling back to Probe (so a later resource change re-profiles;
        #: under unchanged-but-biased estimates it loops forever — the
        #: paper's "LP only fails to converge").
        self._lp_retry_left = 0

    # -- helpers ---------------------------------------------------------------
    def _records_per_epoch(self, obs: EpochObservation) -> float:
        return float(obs.arrived[0]) if len(obs.arrived) else 0.0

    # -- one epoch ----------------------------------------------------------------
    def run_epoch(self) -> EpochReport:
        """Advance the state machine by one epoch and report."""
        self.epoch += 1
        if self.phase is Phase.PROFILE:
            est, obs = self.executor.profile()
            state = QueryState.CONGESTED  # profiling epoch is non-stable by definition
            n_rec = self._records_per_epoch(obs)
            if n_rec <= 0:
                # An empty window sizes no plan: keep p and probe again.
                self.phase = Phase.PROBE
                return EpochReport(self.epoch, Phase.PROFILE, state, self.p.copy(), obs)
            if self.mode in ("jarvis", "lp_only"):
                self.p = lp_initial_plan(est, n_rec)
                self._lp_retry_left = 3
            self._tuner = FineTuner(
                relay=est.relay if self.mode != "no_lp" else (
                    self.relay_hint if self.relay_hint is not None else np.ones(self.n_ops)
                ),
                model=est if self.mode == "jarvis" else None,
                records_per_epoch=n_rec,
            )
            self.phase = Phase.ADAPT
            return EpochReport(self.epoch, Phase.PROFILE, state, self.p.copy(), obs)

        obs = self.executor.execute(self.p)
        state = classify_query(obs, self.p)

        if self.phase is Phase.PROBE:
            if state is QueryState.STABLE:
                self._nonstable_streak = 0
            else:
                self._nonstable_streak += 1
                if self._nonstable_streak >= self.detect_epochs:
                    self._nonstable_streak = 0
                    if self.mode == "no_lp":
                        # Model-agnostic: fine-tune from the current factors.
                        self._tuner = FineTuner(
                            relay=self.relay_hint
                            if self.relay_hint is not None
                            else np.ones(self.n_ops),
                            model=None,
                        )
                        self.phase = Phase.ADAPT
                    else:
                        self.phase = Phase.PROFILE
            return EpochReport(self.epoch, Phase.PROBE, state, self.p.copy(), obs)

        # ADAPT phase.
        if state is QueryState.STABLE:
            self.phase = Phase.PROBE
            self._tuner = None
            return EpochReport(self.epoch, Phase.ADAPT, state, self.p.copy(), obs)
        if self.mode == "lp_only":
            # No fine-tuning: hold the LP plan a few epochs, then fall
            # back to Probe (which re-detects and re-profiles — under
            # unchanged, biased estimates this loops without converging,
            # the paper's "LP only fails to converge").
            self._lp_retry_left -= 1
            if self._lp_retry_left <= 0:
                self.phase = Phase.PROBE
            return EpochReport(self.epoch, Phase.ADAPT, state, self.p.copy(), obs)
        assert self._tuner is not None
        if self.mode == "jarvis":
            self._tuner.update_kappa(
                self.p, obs.compute_used, max(obs.pending_frac.tolist())
            )
        nxt = self._tuner.next_p(self.p, state)
        if nxt is None:
            # Out of moves: best effort reached; fall back to probing.
            self.phase = Phase.PROBE
            self._tuner = None
        else:
            self.p = nxt
        return EpochReport(self.epoch, Phase.ADAPT, state, self.p.copy(), obs)

    # -- experiment driver --------------------------------------------------------
    def run_until_stable(self, max_epochs: int = 100) -> list[EpochReport]:
        """Run epochs until the runtime reports a stable Probe epoch.

        Returns all reports; the caller derives convergence counts
        (non-stable epochs after detection, per the paper's Fig. 8).
        """
        reports: list[EpochReport] = []
        for _ in range(max_epochs):
            rep = self.run_epoch()
            reports.append(rep)
            if rep.state is QueryState.STABLE and rep.phase in (Phase.PROBE, Phase.ADAPT):
                break
        return reports
