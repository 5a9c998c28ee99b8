"""Control-proxy state classification (paper §IV-C).

Each control proxy monitors its downstream operator during an epoch and
classifies it as:

* **congested** — more than ``DRAINED_THRES`` of the records the proxy
  forwarded this epoch are still pending (and had to be force-drained);
* **idle** — the operator stayed empty for more than ``IDLE_THRES`` of
  the epoch;
* **stable** — neither.

The Jarvis runtime aggregates proxy states into a query state: congested
if *any* proxy is congested, idle if *all* proxies are idle while some
load factor is below 1 (i.e. raising it could reduce drains), stable
otherwise.  The extra ``p < 1`` condition prevents Profile/Adapt
oscillation when the query already processes everything locally with
budget to spare.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core import costmodel as cm


class ProxyState(enum.Enum):
    CONGESTED = "congested"
    IDLE = "idle"
    STABLE = "stable"


class QueryState(enum.Enum):
    CONGESTED = "congested"
    IDLE = "idle"
    STABLE = "stable"


@dataclass(slots=True)
class EpochObservation:
    """What the control proxies report to the runtime after one epoch.

    All arrays are per-operator (index = position in the pipeline). One
    is built every epoch, so it is a slotted, non-frozen dataclass: a
    frozen ``__init__`` sets each field through ``object.__setattr__``
    and costs several times as much. Readers treat it as read-only.

    Attributes:
        arrived: records arriving at each proxy.
        forwarded: records the proxy routed to its local operator.
        processed: records the local operator completed.
        drained: records shipped to the SP (planned drains + overflow).
        pending_frac: (forwarded - processed) / forwarded — overflow.
        idle_frac: fraction of the epoch the operator sat empty.
        compute_used: core-seconds consumed by the query this epoch.
        drained_bytes: network bytes shipped on drain paths this epoch.
        output_rows: final aggregate rows produced this epoch.
    """

    arrived: np.ndarray
    forwarded: np.ndarray
    processed: np.ndarray
    drained: np.ndarray
    pending_frac: np.ndarray
    idle_frac: np.ndarray
    compute_used: float
    drained_bytes: float = 0.0
    output_rows: float = 0.0


def classify_proxy(
    pending_frac: float,
    idle_frac: float,
    *,
    drained_thres: float = cm.DRAINED_THRES,
    idle_thres: float = cm.IDLE_THRES,
) -> ProxyState:
    """Classify one proxy from its epoch counters."""
    if pending_frac > drained_thres:
        return ProxyState.CONGESTED
    if idle_frac > idle_thres:
        return ProxyState.IDLE
    return ProxyState.STABLE


def classify_query(
    obs: EpochObservation,
    p: np.ndarray,
    *,
    drained_thres: float = cm.DRAINED_THRES,
    idle_thres: float = cm.IDLE_THRES,
) -> QueryState:
    """Aggregate proxy states into the query state (ProbeCP).

    Applies :func:`classify_proxy`'s rule to each proxy inline: this runs
    every epoch, and a call per proxy costs more than the comparisons.
    ``p`` is read only when every proxy is idle.
    """
    all_idle = True
    for pending, idle in zip(obs.pending_frac.tolist(), obs.idle_frac.tolist()):
        if pending > drained_thres:
            return QueryState.CONGESTED
        if not idle > idle_thres:
            all_idle = False
    if all_idle:
        for v in np.asarray(p).tolist():
            if v < 1.0 - 1e-9:
                return QueryState.IDLE
    return QueryState.STABLE
