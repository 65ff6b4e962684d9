"""Span recorder and monkeypatch plumbing for the traced pass.

The benchmark measures every layer *from outside*: a wrapper around a
public entry point opens a span when the call starts and closes it when
the call returns. Spans are kept in memory as four parallel arrays
(name id, parent index, start, end) and analysed after the run:

* a span's **self time** is its duration minus the durations of its
  direct children, so the self times under one root sum to the root's
  duration exactly — re-entrant calls (``process_inbound`` reached again
  through a reflected reply) need no special case;
* counts that need no timing (a million-call accessor) use
  :func:`counted`, which costs one dict update per call.

:class:`Patcher` installs wrappers at class or module level and puts the
originals back, in reverse order, on :meth:`Patcher.restore`.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "SpanTotals", "Patcher", "timed", "counted"]

#: ``(calls, total_seconds, self_seconds)`` of one span name.
SpanTotals = Tuple[int, float, float]


class SpanRecorder:
    """In-memory span store. Not thread-safe: one recorder serves the one
    thread that runs the simulation."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = [-1]  # open span indices; -1 = no parent
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.enter(self.name_id(name))
        try:
            yield index
        finally:
            self.exit(index)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.starts)

    # ------------------------------------------------------------------ #
    # Analysis (after the run)
    # ------------------------------------------------------------------ #

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def subtree_end(self, root: int) -> int:
        """One past the last span nested under ``root``. Spans are stored
        in start order, so a root's descendants are the contiguous run of
        later spans that started before it ended."""
        end_time = self.ends[root]
        starts = self.starts
        index = root + 1
        n = len(starts)
        while index < n and starts[index] < end_time:
            index += 1
        return index

    def totals(self, root: int) -> Dict[str, SpanTotals]:
        """Per-name ``(calls, total, self)`` over ``root`` and everything
        nested under it. The self times sum to ``duration(root)``."""
        stop = self.subtree_end(root)
        starts, ends, parents = self.starts, self.ends, self.parents
        self_times = [ends[i] - starts[i] for i in range(root, stop)]
        for i in range(root + 1, stop):
            self_times[parents[i] - root] -= ends[i] - starts[i]
        calls: Dict[int, int] = {}
        total: Dict[int, float] = {}
        own: Dict[int, float] = {}
        name_ids = self.name_ids
        for i in range(root, stop):
            nid = name_ids[i]
            calls[nid] = calls.get(nid, 0) + 1
            total[nid] = total.get(nid, 0.0) + (ends[i] - starts[i])
            own[nid] = own.get(nid, 0.0) + self_times[i - root]
        return {
            self.names[nid]: (calls[nid], total[nid], own[nid]) for nid in calls
        }

    def dump(self, path: str, root: int) -> int:
        """Write ``root``'s subtree as JSON lines: a header naming the
        spans, then ``[name_id, parent, start, end]`` per span with times
        relative to the root's start. Returns the span count."""
        stop = self.subtree_end(root)
        origin = self.starts[root]
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "root": root}) + "\n")
            for i in range(root, stop):
                fh.write(
                    f"[{self.name_ids[i]},{self.parents[i]},"
                    f"{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f}]\n"
                )
        return stop - root


def timed(
    rec: SpanRecorder,
    name: str,
    func: Callable[..., Any],
    tally: Optional[Callable[[tuple, Any], int]] = None,
) -> Callable[..., Any]:
    """Wrap ``func`` so every call is one span named ``name``.

    ``tally(args, result)`` — evaluated after the span closes, so it is
    never charged to the layer — adds its integer to the count
    ``name + ":tally"`` (e.g. how many arrivals a span-lane call
    consumed). The wrapper passes arguments, result and exceptions
    through untouched."""
    # SpanRecorder.enter / exit spelled out with pre-bound locals: this
    # runs a million times per traced pass and is the tracing overhead.
    nid = rec.name_id(name)
    stack = rec.stack
    names_append = rec.name_ids.append
    parents_append = rec.parents.append
    starts = rec.starts
    starts_append = starts.append
    ends = rec.ends
    ends_append = ends.append
    stack_append = stack.append
    stack_pop = stack.pop
    clock = rec.clock

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = len(starts)
        names_append(nid)
        parents_append(stack[-1])
        ends_append(0.0)
        stack_append(index)
        starts_append(clock())
        try:
            return func(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack_pop()

    if tally is None:
        return wrapper
    tally_name = name + ":tally"

    def tallying(*args: Any, **kwargs: Any) -> Any:
        result = wrapper(*args, **kwargs)
        rec.add(tally_name, tally(args, result))
        return result

    return tallying


def counted(
    rec: SpanRecorder, name: str, func: Callable[..., Any]
) -> Callable[..., Any]:
    """Wrap ``func`` to count calls under ``name`` without timing them."""
    counts = rec.counts
    counts.setdefault(name, 0)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return func(*args, **kwargs)

    return wrapper


class Patcher:
    """Installs replacement attributes on classes and modules and restores
    the originals — use as a context manager so an exception in the
    measured code cannot leave a wrapper behind."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(
        self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` with ``wrap(original)``. ``owner`` is a
        class or a module; class and static methods keep their kind. An
        attribute ``owner`` only inherits is shadowed on ``owner`` itself
        and the shadow removed on restore."""
        raw = vars(owner).get(attr, self._MISSING)
        if raw is self._MISSING:
            replacement = wrap(getattr(owner, attr))
        elif isinstance(raw, classmethod):
            replacement = classmethod(wrap(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()
