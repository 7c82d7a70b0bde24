"""Spans recorded around calls into the program's layers, from outside it.

The tracer replaces a layer's public function at the name its caller looks
up (a module attribute, a class attribute or a dispatch-table entry) with a
wrapper that records one span per call: name, start, end, parent span, the
op it belongs to, and a work count (rows, lines, trials or samples). Spans
stay in flat in-memory arrays until the run ends. A span's self time is its
duration minus the durations of its direct children; calls are sequential,
so children never overlap.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.work = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, object, object]] = []
        self.traced_of: dict[object, object] = {}
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, work=None):
        """Traced version of ``fn``. ``name`` is a string or a function of
        the call's positional arguments; ``work(args, result)`` gives the
        span's work count."""
        fixed = None if callable(name) else self._name_id(name)
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops, works = self.parent, self.op, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else self._name_id(name(args)))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            works.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()
            if work is not None:
                works[idx] = work(args, result)
            return result

        self.traced_of[fn] = traced
        return traced

    def patch(self, owner, attr: str, name, work=None) -> None:
        """Replace a module attribute by its traced version."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, work))
        self._undo.append((owner, attr, original))

    def patch_classmethod(self, cls, attr: str, name, work=None) -> None:
        """Shadow an inherited classmethod on ``cls`` by its traced version."""
        traced = self.wrap(name, getattr(cls, attr).__func__, work)
        self._undo.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, classmethod(traced))

    def repoint(self, table: dict) -> None:
        """Point dispatch-table entries at the traced versions of their
        functions, for callers that captured the functions at import."""
        for key, fn in list(table.items()):
            if fn in self.traced_of:
                self._undo.append((table, key, fn))
                table[key] = self.traced_of[fn]

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "work": np.array(self.work, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write every span once, at the end of the run."""
        data = self.arrays()
        np.savez(path, names=np.array(self.names), start=np.array(self.start, dtype=np.int64),
                 **data)


class SpanView:
    """Aggregates over the recorded spans, selected by name."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.a = tracer.arrays()

    def mask(self, pred) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if pred(n)]
        return np.isin(self.a["name"], ids)

    def named(self, *names: str) -> np.ndarray:
        return self.mask(lambda n: n in names)

    def prefixed(self, prefix: str) -> np.ndarray:
        return self.mask(lambda n: n.startswith(prefix))

    def under(self, child: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Spans in ``child`` whose direct parent is in ``parent``."""
        p = self.a["parent"]
        parent_idx = np.flatnonzero(parent)
        return child & np.isin(p, parent_idx)
