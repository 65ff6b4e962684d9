"""Deterministic discrete-event simulator.

The :class:`Simulator` is the heart of the reproduction: a priority queue of
timestamped callbacks and a simulated clock measured in **seconds** (floats).
All latencies in the system — flash-clone stage costs, link delays, guest
think times — are expressed by scheduling callbacks into this queue.

Determinism guarantees:

* Events with equal timestamps fire in insertion order (a monotonically
  increasing sequence number breaks ties), so re-running with the same seed
  reproduces the exact event interleaving.
* The clock only moves when the loop pops an event; callbacks may schedule
  new events at or after the current time but never in the past.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.obs import recorder as _obs

__all__ = [
    "ArrivalStream",
    "Event",
    "Simulator",
    "SimulationError",
    "batched_collection",
]

#: Gen-0 threshold while a simulation runs (CPython's default is 700).
_RUN_GC_THRESHOLD = 50_000


class batched_collection:
    """Context manager: the collector policy of a stream-draining
    simulation, for as long as the block lasts.

    A drain allocates its bookkeeping (flow records, sessions, cache
    entries, VMs) in dense bursts, and the default gen-0 threshold makes
    the cyclic collector walk the heap thousands of times per storm for
    objects that are overwhelmingly still live; this trades collection
    frequency for batch size. Purely a wall-clock knob — collection
    points never affect simulated state.

    :meth:`Simulator.run` enters it when it has streams to drain. Whoever
    drives simulators in many short slices (a federation's lockstep loop)
    holds it around the whole drive: the allocation count run up under
    the raised threshold is over the default one, so restoring after
    every slice buys a collection at the first allocation after every
    slice. Re-entrant with nothing shared between holders — an entry that
    finds the threshold already raised does nothing, so only the
    outermost holder restores — restored on every exit path, and skipped
    when the collector is disabled.

    A class with a plain ``__exit__``, not a ``@contextmanager``
    generator: the collection a restore leaves pending is paid by
    whoever allocates the next container, and a generator's closing
    ``StopIteration`` would be that container — a whole-heap pass billed
    to the run that just ended rather than to what the caller does next.
    """

    __slots__ = ("_saved",)

    def __enter__(self) -> None:
        saved = gc.get_threshold()
        if gc.isenabled() and saved[0] < _RUN_GC_THRESHOLD:
            self._saved = saved
            gc.set_threshold(_RUN_GC_THRESHOLD, 50, 50)
        else:
            self._saved = None

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        if self._saved is not None:
            gc.set_threshold(*self._saved)


#: callback.__module__ -> short subsystem label, e.g.
#: "repro.core.gateway" -> "gateway". Cached because the same handful of
#: modules schedule millions of events.
_SUBSYSTEM_CACHE: dict = {}

#: Module tails whose emit points use a different subsystem label; kept in
#: sync so timing rows join the event rows in the trace summary.
_SUBSYSTEM_ALIASES = {
    "flash_clone": "clone",
    "honeyfarm": "farm",
    "injectors": "faults",
    "recorder": "metrics",
}


def _subsystem_of(callback: Callable[..., Any]) -> str:
    """Attribute a callback to the subsystem (module tail) that owns it."""
    module = getattr(callback, "__module__", None) or "unknown"
    subsystem = _SUBSYSTEM_CACHE.get(module)
    if subsystem is None:
        tail = module.rsplit(".", 1)[-1]
        subsystem = _SUBSYSTEM_CACHE[module] = _SUBSYSTEM_ALIASES.get(tail, tail)
    return subsystem


class SimulationError(Exception):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class ArrivalStream(Protocol):
    """A pre-sorted source of work merged into :meth:`Simulator.run`.

    Streams exist so bulk workloads (a million telescope arrivals) do not
    pay one heap entry per item: the stream holds its items in arrival
    order, owns a contiguous block of sequence numbers reserved via
    :meth:`Simulator.reserve_seqs` at attach time, and the run loop merges
    it against the heap by ``(time, seq)`` key — so firing order is
    bit-identical to scheduling every item individually.
    """

    def peek(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next undelivered item, or None when
        exhausted."""

    def drain(
        self,
        until: Optional[float],
        limit_key: Optional[Tuple[float, int]],
        budget: Optional[int],
    ) -> int:
        """Deliver items while they outrank the simulator's heap head,
        ``limit_key`` (the best key among *other* attached streams), and
        ``until``; returns how many items were delivered. The stream is
        responsible for advancing the clock and the processed-event count
        via :meth:`Simulator.advance_for_stream` for every item."""


class Event:
    """A scheduled callback, returned by :meth:`Simulator.schedule`.

    Holding on to the event lets callers cancel it before it fires — the
    idiom used throughout the reproduction for idle timers that are pushed
    back whenever a VM receives another packet.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a no-op;
        the event is lazily discarded when the loop pops it (or earlier,
        if the owning simulator compacts its heap).
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Discrete-event loop with a simulated clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "late")
    >>> _ = sim.schedule(0.5, fired.append, "early")
    >>> sim.run()
    >>> fired
    ['early', 'late']
    >>> sim.now
    1.5
    """

    #: Compaction never triggers below this queue size — rebuilding a tiny
    #: heap costs more bookkeeping than the dead events it would remove.
    COMPACTION_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[Event] = []
        self._seq = 0
        self._streams: List[ArrivalStream] = []
        self._running = False
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._compactions = 0

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled_in_heap

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted."""
        return self._compactions

    # ------------------------------------------------------------------ #
    # Heap hygiene
    # ------------------------------------------------------------------ #

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event sits in the heap.

        Idle-timer push-back cancels one event per packet, so cancelled
        events would otherwise pile up and inflate every heap operation to
        O(log dead). Once the dead fraction crosses one half (and the heap
        is big enough to care), rebuild without them: events carry a strict
        (time, seq) total order, so re-heapifying cannot change firing
        order.
        """
        self._cancelled_in_heap += 1
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and self._cancelled_in_heap * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        live: list[Event] = []
        for event in self._queue:
            if event.cancelled:
                # Detach dropped tombstones: the event no longer occupies a
                # heap slot, so nothing it does later (it is already
                # cancelled, but belt-and-braces) may touch this simulator.
                event._sim = None
            else:
                live.append(event)
        self._queue = live
        heapq.heapify(self._queue)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def _discard_head(self) -> None:
        """Pop a cancelled event off the heap and forget it."""
        event = heapq.heappop(self._queue)
        event._sim = None
        self._cancelled_in_heap -= 1

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled until it fires.
        ``delay`` must be non-negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}; clock is already at {self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(float(time), seq, callback, args)
        event._sim = self
        heapq.heappush(self._queue, event)
        return event

    def reserve_seqs(self, count: int) -> int:
        """Reserve a contiguous block of ``count`` sequence numbers and
        return the first.

        Arrival streams (see :class:`ArrivalStream`) claim their tie-break
        seqs up front: item ``i`` carries key ``(times[i], base + i)``, so
        at equal timestamps stream items fire before anything scheduled
        *after* the reservation and after anything scheduled before it —
        exactly the order individual ``schedule_at`` calls made at
        reservation time would have produced.
        """
        if count < 0:
            raise SimulationError(f"cannot reserve {count!r} sequence numbers")
        base = self._seq
        self._seq = base + count
        return base

    def attach_stream(self, stream: ArrivalStream) -> None:
        """Merge ``stream`` into this simulator's run loop.

        The stream must already hold its sequence block (via
        :meth:`reserve_seqs`) and its first item must not be in the past.
        Exhausted streams are detached automatically by :meth:`run`.
        """
        key = stream.peek()
        if key is not None and key[0] < self._now:
            raise SimulationError(
                f"cannot attach stream starting at t={key[0]!r}; clock is"
                f" already at {self._now!r}"
            )
        self._streams.append(stream)

    def advance_for_stream(self, time: float, count: int = 1) -> None:
        """Clock/accounting hook for streams delivering items from
        :meth:`ArrivalStream.drain`: each delivered item advances the
        clock to its timestamp and counts as one processed event, exactly
        as if it had been popped off the heap."""
        self._now = time
        self._events_processed += count

    def call_now(self, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the current time (after the
        currently-executing event completes)."""
        return self.schedule(0.0, callback, *args)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        Cancelled events are discarded without advancing the clock.
        Serves the heap only — attached :class:`ArrivalStream` items are
        merged by :meth:`run`, which is how streamed workloads execute.
        """
        while self._queue:
            if self._queue[0].cancelled:
                self._discard_head()
                continue
            event = heapq.heappop(self._queue)
            event._sim = None  # fired; a late cancel() must not touch the heap count
            self._now = event.time
            self._events_processed += 1
            recorder = _obs.ACTIVE
            if recorder is None:
                event.callback(*event.args)
            else:
                # Flight-recorder timing hook: attribute this callback's
                # wall-clock cost to its owning subsystem. Wall time stays
                # out of the event stream (it is nondeterministic).
                started = perf_counter()
                event.callback(*event.args)
                recorder.record_timing(
                    _subsystem_of(event.callback), perf_counter() - started
                )
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced on **every** exit
        path, so time-based metrics close their final interval
        consistently: to exactly ``until`` when the queue drained or only
        later events remain, and — when ``max_events`` stops the loop with
        earlier events still pending — to the next pending event's time
        (never past it, so the clock cannot run backwards on resume).
        Events scheduled at exactly ``until`` still fire.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        executed = 0
        # A heap-only run keeps the default collector policy: its steady
        # per-event allocation profile is the one the defaults suit.
        policy = batched_collection() if self._streams else nullcontext()
        try:
            with policy:
                while True:
                    if max_events is not None and executed >= max_events:
                        break
                    # self._queue is re-read each pass: compaction rebinds it.
                    while self._queue and self._queue[0].cancelled:
                        self._discard_head()
                    head = self._queue[0] if self._queue else None
                    stream, stream_key, runner_key = self._best_stream()
                    if stream is not None and (
                        head is None or stream_key < (head.time, head.seq)
                    ):
                        if until is not None and stream_key[0] > until:
                            break
                        budget = None if max_events is None else max_events - executed
                        executed += stream.drain(until, runner_key, budget)
                        if stream.peek() is None:
                            self._streams.remove(stream)
                        continue
                    if head is None:
                        break
                    if until is not None and head.time > until:
                        break
                    self.step()
                    executed += 1
                if until is not None and self._now < until:
                    next_time = self._next_pending_time()
                    target = until if next_time is None else min(until, next_time)
                    if target > self._now:
                        self._now = target
        finally:
            self._running = False

    def _best_stream(
        self,
    ) -> Tuple[Optional[ArrivalStream], Optional[Tuple[float, int]], Optional[Tuple[float, int]]]:
        """The attached stream with the earliest key, its key, and the
        runner-up key (the limit a drain of the best stream must respect
        so two streams still interleave in (time, seq) order)."""
        best = None
        best_key = None
        runner_key = None
        for stream in self._streams:
            key = stream.peek()
            if key is None:
                continue
            if best_key is None or key < best_key:
                runner_key = best_key
                best, best_key = stream, key
            elif runner_key is None or key < runner_key:
                runner_key = key
        return best, best_key, runner_key

    def _next_pending_time(self) -> Optional[float]:
        """Time of the next live event or stream arrival, discarding dead
        heads en route."""
        next_time: Optional[float] = None
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                self._discard_head()
                continue
            next_time = head.time
            break
        for stream in self._streams:
            key = stream.peek()
            if key is not None and (next_time is None or key[0] < next_time):
                next_time = key[0]
        return next_time

    def reset(self, start_time: float = 0.0) -> None:
        """Discard all pending events and streams and rewind the clock."""
        for event in self._queue:
            event._sim = None
        self._queue.clear()
        self._streams.clear()
        self._now = float(start_time)
        self._events_processed = 0
        self._cancelled_in_heap = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator now={self._now:.6f} pending={len(self._queue)} "
            f"processed={self._events_processed}>"
        )
