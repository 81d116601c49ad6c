"""Span recording for the traced run, attached to the program from outside.

The program under test carries no tracing of its own.  :class:`SpanRecorder`
replaces public functions and methods of each layer with thin wrappers that
record a span (name, start, end, parent) per call, keeps every span in
memory in compact arrays, and writes them out once when the run ends.
:class:`SpanTable` turns the recorded arrays into per-layer figures: self
time (duration minus the time child spans cover), inclusive time without
double counting recursion, and ancestor filters such as "golden capture
inside the campaign, not inside detector training".

Spans come from one thread of one process, opened and closed in stack
order, so the children of a span never overlap one another and their
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections.abc import Callable, Iterable
from pathlib import Path

import numpy as np

__all__ = ["SpanRecorder", "SpanTable", "self_times"]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part its direct children cover.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a top-level
    span.  Children of one span never overlap (they come from one call
    stack), so the covered part is the sum of the children's durations,
    capped at the parent's own duration.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - np.minimum(covered, duration)


class SpanTable:
    """Read-only queries over one run's recorded spans."""

    def __init__(self, names: list[str], name_id, start, end, parent) -> None:
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    def __len__(self) -> int:
        return len(self.start)

    def _ids(self, names: Iterable[str]) -> np.ndarray:
        wanted = set(names)
        return np.array(
            [i for i, n in enumerate(self.names) if n in wanted], dtype=np.int64
        )

    def _named(self, names: Iterable[str]) -> np.ndarray:
        return np.isin(self.name_id, self._ids(names))

    def _has_ancestor(self, names: Iterable[str]) -> np.ndarray:
        """Mask of spans with at least one ancestor named in ``names``."""
        ids = self._ids(names)
        found = np.zeros(len(self), dtype=bool)
        ancestor = self.parent.copy()
        while True:
            live = ancestor >= 0
            if not live.any():
                return found
            found[live] |= np.isin(self.name_id[ancestor[live]], ids)
            ancestor[live] = self.parent[ancestor[live]]

    def _select(self, names, under, not_under) -> np.ndarray:
        names = [names] if isinstance(names, str) else list(names)
        mask = self._named(names) & ~self._has_ancestor(names)
        if under:
            mask &= self._has_ancestor(under)
        if not_under:
            mask &= ~self._has_ancestor(not_under)
        return mask

    def inclusive(self, names, *, under=(), not_under=()) -> float:
        """Wall time inside spans named ``names``, nested repeats counted once."""
        return float(self.duration[self._select(names, under, not_under)].sum())

    def count(self, names, *, under=(), not_under=()) -> int:
        """Calls of ``names``, not counting calls nested inside one another."""
        return int(self._select(names, under, not_under).sum())

    def exclusive(self, names) -> float:
        """Summed self time of every span named ``names``."""
        names = [names] if isinstance(names, str) else list(names)
        return float(self.self_time[self._named(names)].sum())

    def top_level(self) -> float:
        """Wall time covered by spans that have no parent."""
        return float(self.duration[self.parent < 0].sum())


class SpanRecorder:
    """Records spans around wrapped callables; :meth:`detach` restores them.

    ``run_id`` tags every span written out, so spans of several runs can be
    pooled and still told apart.  ``counts`` holds integer counters filled by
    wrapper hooks at the same boundaries as the spans.
    """

    def __init__(self, run_id: str, *, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, fn: Callable, name, *, on_enter=None, on_exit=None) -> Callable:
        """``fn`` with a span around every call.

        ``name`` is a string or ``name(args, kwargs) -> str``.  ``on_enter``
        and ``on_exit(args, kwargs, result)`` run outside the span.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            index = recorder.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return traced

    # -- attaching ---------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name, **hooks) -> None:
        """Trace ``cls.attr`` for every caller, bound or unbound.

        The wrapper replaces the attribute on the class that defines it, so
        an inherited method is traced for every subclass sharing it.
        """
        cls = next(c for c in cls.__mro__ if attr in c.__dict__)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, **hooks))
        else:
            wrapped = self.wrap(original, name, **hooks)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, original))

    def patch_function(self, fn: Callable, name, *, prefix: str, **hooks) -> None:
        """Trace function ``fn`` everywhere it is bound at module level.

        Every loaded module under package ``prefix`` whose globals hold
        ``fn`` gets the wrapper, so ``from x import f`` call sites are
        traced as well as ``x.f`` ones.
        """
        wrapped = self.wrap(fn, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    namespace[key] = wrapped
                    self._patches.append((mod, key, fn))

    def detach(self) -> None:
        """Put every patched attribute back, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                vars(owner)[attr] = original
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def table(self) -> SpanTable:
        """The recorded spans; call it once every wrapped call has returned."""
        return SpanTable(self.names, self.name_id, self.start, self.end, self.parent)

    def write(self, path: str | Path, table: SpanTable | None = None) -> None:
        """Write the spans as arrays (name table + columns) to ``path``."""
        table = table if table is not None else self.table()
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(table.names),
            name_id=table.name_id.astype(np.int32),
            start=table.start,
            end=table.end,
            parent=table.parent.astype(np.int32),
        )
