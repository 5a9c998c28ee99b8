"""Spans recorded around calls into the program, kept in memory.

The benchmark never edits ``src/``: it replaces a module or class
attribute with a wrapper for the length of one phase and puts the
original back afterwards. A wrapper seen by a module that did
``from x import f`` must be installed in *that* module's namespace,
which is why every wrap names the caller's module ("as the caller sees
it").

A span is (name, start, end, parent, epoch). Parents follow the call
stack of the thread that opened the span; a span opened on a thread
with an empty stack (the Structured Streaming ``foreachBatch`` callback
thread) hangs under the current *ambient* span, so stream work is
charged to the stream call that caused it.
"""
from __future__ import annotations

import functools
import gzip
import json
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Span-name prefix -> layer (the repo's module groups).
LAYER_OF_PREFIX = {
    "workloads": "workloads",
    "partition_exec": "partition_exec",
    "pipeline": "partition_exec",
    "executor": "executor",
    "streaming": "streaming",
    "runtime": "control",
    "stepwise": "control",
    "proxy": "control",
    "lp": "control",
    "cluster": "tables",
    "strategies": "tables",
    "experiments": "tables",
    "bench": "bench",
}
LAYERS = ("workloads", "partition_exec", "executor", "streaming", "control", "tables", "bench")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def tap(self, owner, attr: str, after) -> None:
        """Call ``after(args, kwargs, result)`` after every call."""
        orig = vars(owner)[attr]

        @functools.wraps(orig)
        def tapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            after(args, kwargs, out)
            return out

        self.replace(owner, attr, tapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Tracer:
    """Columnar in-memory span store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.epoch_of = array("i")
        #: Epoch id stamped on spans opened from now on (set by the workload).
        self.epoch = -1
        self._ambient = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self.patches = Patches()

    # -- recording -------------------------------------------------------------
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._ambient
        with self._lock:
            nid = self._name_id.get(name)
            if nid is None:
                nid = self._name_id[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.epoch_of.append(self.epoch)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, *, ambient: bool = False):
        idx = self.open(name)
        prev = self._ambient
        if ambient:
            self._ambient = idx
        try:
            yield idx
        finally:
            self._ambient = prev
            self.close(idx)

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = vars(owner)[attr]

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        self.patches.replace(owner, attr, traced)

    # -- analysis --------------------------------------------------------------
    def _arrays(self):
        # Copies, so no buffer export pins the arrays against appends.
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        return np.array(self.name), end - start, np.array(self.parent)

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations, self times) of every span."""
        name, dur, parent = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return name, dur, dur - child

    def by_name(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(durations, self times) of the spans called ``name``."""
        ids, dur, self_t = self.self_times()
        nid = self._name_id.get(name, -1)
        mask = ids == nid
        return dur[mask], self_t[mask]

    def layer_self_s(self) -> dict[str, float]:
        ids, _, self_t = self.self_times()
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, nm in enumerate(self.names):
            out[LAYER_OF_PREFIX[nm.split(".", 1)[0]]] += float(self_t[ids == nid].sum())
        return out

    def write(self, path) -> None:
        """Write every span as columns (gzip JSON)."""
        name, dur, parent = self._arrays()
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": name.tolist(),
            "start_s": [round(s - t0, 7) for s in self.start],
            "dur_s": [round(float(d), 7) for d in dur],
            "parent": parent.tolist(),
            "epoch": list(self.epoch_of),
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f)
