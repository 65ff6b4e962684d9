"""Struct-of-arrays arrival batching for the simulator hot loop.

Replaying a telescope trace used to mean one heap entry, one ``Event``
object, and one full dispatch-loop pass per packet — the per-event Python
overhead, not the gateway, was the end-to-end bottleneck (ROADMAP item 2).
:class:`PacketArrivalStream` removes it: arrivals live in two preallocated
parallel arrays (timestamps and prebuilt :class:`~repro.net.packet.Packet`
objects — a struct-of-arrays layout, so no per-arrival container is ever
allocated), the stream reserves a contiguous block of tie-break sequence
numbers at attach time, and :meth:`Simulator.run` merges it against the
event heap by ``(time, seq)``.

Ordering contract (what makes batching a *pure mechanical transform*):

* Item ``i`` carries key ``(times[i], base_seq + i)``. Reserving the seq
  block at attach time gives every arrival a lower seq than any event
  scheduled afterwards — identical to what per-event ``schedule_at``
  calls made at the same moment would have held.
* A *batch* is a maximal run of equal timestamps. Within a batch no heap
  check is needed: events scheduled by a dispatched packet's callbacks
  land at ``time >= now`` with a seq above the whole reservation, so they
  cannot outrank any remaining arrival at the same timestamp. Between
  batches the stream re-checks the heap head (and the best key of any
  *other* attached stream) so interleaved events fire in exact
  ``(time, seq)`` order.
* Flow-table expiry keeps per-event boundary semantics for free: sweeps
  are ordinary heap events, and a sweep scheduled at the batch timestamp
  was necessarily scheduled *before* the stream attached (lower seq) or
  *after* (higher seq) — the merge fires it in exactly the slot the
  per-event loop would have.

Batch boundaries come from a walk over the timestamp list, span bounds
from ``bisect`` over the same list; there is one implementation of each.

Dispatch has two lanes:

* **span lane** — lazy struct-of-arrays only (:class:`PacketColumns`
  attached) and no flight recorder: a whole *multi-timestamp* run of
  arrivals, bounded by the next heap event / ``until`` / budget via
  binary search, goes to ``deliver_span(columns, start, limit)``
  (normally :meth:`~repro.core.gateway.Gateway.dispatch_span`), which
  processes the prefix it can prove equivalent to per-event dispatch
  without ever materializing a :class:`~repro.net.packet.Packet` and
  returns how many it consumed. Whatever it declines falls through to
  the per-packet lane below, so progress is always made.
* **per-packet lane** — each packet of one equal-timestamp batch goes
  through ``deliver``, the same callable per-event replay schedules
  (normally :meth:`~repro.core.honeyfarm.Honeyfarm.inject`), so a run
  with a flight recorder or packet tap installed executes the same
  gateway code as a run without. With a recorder the call is wrapped in
  the per-subsystem timing hook the event loop applies, so recorded
  traces stay bit-identical to the per-event loop's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import attrgetter, lt
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.addr import IPAddress
from repro.net.packet import Packet
from repro.obs import recorder as _obs
from repro.sim.engine import SimulationError, Simulator

__all__ = ["PacketColumns", "PacketArrivalStream"]

# Column extractors: ``map(attrgetter, records)`` iterates in C, which
# matters at 10^5 records per replay. The 5-field getter returns the
# arrival key tuple directly, in FlowKey-compatible field order.
_get_time = attrgetter("time")
_get_key = attrgetter("src", "src_port", "dst", "dst_port", "protocol")
_get_payload = attrgetter("payload")
_get_size = attrgetter("size")


class PacketColumns:
    """Struct-of-arrays view of a trace: one column per packet field,
    packets materialized lazily.

    Building a :class:`~repro.net.packet.Packet` per arrival (~6 µs each)
    costs more than the whole span-lane dispatch budget, so the batched
    replay path keeps arrivals as parallel columns of plain
    ints/floats/strings — C-speed comprehensions over the trace records —
    and only materializes ``packets[i]`` when a packet actually leaves
    the span lane (slow-path dispatch, promotion-buffer replay, or the
    faithful per-packet lane). ``packet_at`` caches, so a packet is
    built at most once and every consumer shares the same instance.

    ``keys[i]`` is the *arrival* 5-tuple ``(src, src_port, dst, dst_port,
    protocol)`` with addresses as the trace's dotted-quad strings —
    injective per conversation direction, which is all the gateway's span
    cache needs. ``addr_cache`` (dotted-quad → :class:`IPAddress`) starts
    empty and fills lazily: only addresses of flows that actually reach
    the resolve path (or a materialized packet) ever pay for parsing.
    """

    __slots__ = (
        "records",
        "n",
        "times",
        "keys",
        "payloads",
        "sizes",
        "addr_cache",
        "packets",
    )

    def __init__(self, records: Sequence, time_offset: float = 0.0) -> None:
        records = list(records)
        self.records = records
        self.n = len(records)
        if time_offset:
            self.times: List[float] = [r.time + time_offset for r in records]
        else:
            self.times = list(map(_get_time, records))
        self.keys: List[Tuple[str, int, str, int, int]] = list(
            map(_get_key, records)
        )
        self.payloads: List[str] = list(map(_get_payload, records))
        self.sizes: List[int] = list(map(_get_size, records))
        self.addr_cache: Dict[str, IPAddress] = {}
        self.packets: List[Optional[Packet]] = [None] * self.n

    def packet_at(self, i: int) -> Packet:
        """Materialize (and cache) the packet for record ``i``."""
        packet = self.packets[i]
        if packet is None:
            packet = self.packets[i] = self.records[i].to_packet(self.addr_cache)
        return packet

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        built = sum(1 for p in self.packets if p is not None)
        return f"<PacketColumns n={self.n} materialized={built}>"


class PacketArrivalStream:
    """A time-sorted packet workload merged into ``Simulator.run``.

    ``times`` and ``packets`` are parallel arrays (``times`` must be
    non-decreasing); ``deliver`` is the per-packet injection callable the
    per-event loop would have scheduled (e.g. ``farm.inject``).
    """

    __slots__ = (
        "_sim",
        "_times",
        "_packets",
        "_deliver",
        "_columns",
        "_deliver_span",
        "_timing_label",
        "_pos",
        "_len",
        "_base_seq",
    )

    def __init__(
        self,
        sim: Simulator,
        times: Sequence[float],
        packets: List[Packet],
        deliver: Callable[[Packet], None],
        timing_label: str = "farm",
        columns: Optional[PacketColumns] = None,
        deliver_span: Optional[Callable[[PacketColumns, int, int], int]] = None,
    ) -> None:
        if len(times) != len(packets):
            raise ValueError(
                f"times/packets length mismatch: {len(times)} != {len(packets)}"
            )
        times = [float(t) for t in times]
        if any(map(lt, islice(times, 1, None), times)):  # C-speed scan
            bad = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
            raise SimulationError(
                f"arrival times must be non-decreasing: item {bad} at"
                f" t={times[bad]!r} after t={times[bad - 1]!r}"
            )
        if columns is not None and packets is not columns.packets:
            raise ValueError(
                "columns.packets must be the stream's packets list (the"
                " lazy-materialization cache is shared)"
            )
        self._sim = sim
        self._times = times
        self._packets = packets
        self._deliver = deliver
        self._columns = columns
        self._deliver_span = deliver_span if columns is not None else None
        self._timing_label = timing_label
        self._pos = 0
        self._len = len(times)
        self._base_seq = sim.reserve_seqs(self._len)

    # ------------------------------------------------------------------ #
    # ArrivalStream protocol (see repro.sim.engine)
    # ------------------------------------------------------------------ #

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    def peek(self) -> Optional[Tuple[float, int]]:
        i = self._pos
        if i >= self._len:
            return None
        return (self._times[i], self._base_seq + i)

    def _batch_end(self, start: int, t: float) -> int:
        """End index (exclusive) of the equal-timestamp run beginning at
        ``start``."""
        times = self._times
        end = start + 1
        n = self._len
        while end < n and times[end] == t:
            end += 1
        return end

    def _span_limit(self, ktime: float, kseq: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``(time, seq)`` key outranks
        ``(ktime, kseq)`` — arrivals below it may fire before that event.
        Mirrors the per-item checks in :meth:`drain` exactly: an arrival
        fires while its key is ``<=`` the competing key."""
        times = self._times
        left = bisect_left(times, ktime, lo, hi)
        right = bisect_right(times, ktime, left, hi)
        cut = kseq - self._base_seq + 1
        if cut < left:
            return left
        if cut > right:
            return right
        return cut

    def drain(
        self,
        until: Optional[float],
        limit_key: Optional[Tuple[float, int]],
        budget: Optional[int],
    ) -> int:
        sim = self._sim
        times = self._times
        base = self._base_seq
        n = self._len
        i = self._pos
        delivered = 0
        deliver_span = self._deliver_span
        columns = self._columns
        while i < n:
            t = times[i]
            if until is not None and t > until:
                break
            seq = base + i
            if limit_key is not None and limit_key < (t, seq):
                break
            queue = sim._queue  # re-read: compaction rebinds the list
            head = queue[0] if queue else None
            if head is not None and (
                head.time < t or (head.time == t and head.seq < seq)
            ):
                break
            if deliver_span is not None and _obs.ACTIVE is None:
                # Span lane: hand the gateway the longest run of arrivals
                # that provably fires before the next heap event (the fast
                # path schedules nothing, so the bound stays valid for the
                # whole span). The gateway consumes the prefix it can
                # prove per-event-equivalent and leaves the rest to the
                # per-packet lane below.
                lim = n
                if until is not None:
                    lim = bisect_right(times, until, i, lim)
                if head is not None:
                    lim = self._span_limit(head.time, head.seq, i, lim)
                if limit_key is not None:
                    lim = self._span_limit(limit_key[0], limit_key[1], i, lim)
                if budget is not None and lim - i > budget - delivered:
                    lim = i + (budget - delivered)
                if lim > i:
                    done = deliver_span(columns, i, lim)
                    if done:
                        # Clock/accounting after the fact: the span never
                        # reads sim.now, so advancing once to the last
                        # consumed timestamp is equivalent to per-item
                        # advancement.
                        sim.advance_for_stream(times[i + done - 1], done)
                        i += done
                        self._pos = i
                        delivered += done
                        if budget is not None and delivered >= budget:
                            break
                        continue
            end = self._batch_end(i, t)
            if budget is not None and end - i > budget - delivered:
                end = i + (budget - delivered)
            sim.advance_for_stream(t, end - i)
            self._pos = end  # before dispatch: callbacks may inspect us
            self._dispatch_slice(i, end)
            delivered += end - i
            i = end
            if budget is not None and delivered >= budget:
                break
        return delivered

    # ------------------------------------------------------------------ #
    # Per-packet lane
    # ------------------------------------------------------------------ #

    def _dispatch_slice(self, start: int, end: int) -> None:
        recorder = _obs.ACTIVE
        packets = self._packets
        deliver = self._deliver
        for k in range(start, end):
            packet = packets[k]
            if packet is None:
                # Lazy columns: a packet the span lane never consumed is
                # materialized here, exactly as the eager path built it.
                packet = self._columns.packet_at(k)
            if recorder is None:
                deliver(packet)
            else:
                # The per-subsystem timing attribution Simulator.step
                # applies, so recorded traces are bit-identical to the
                # per-event loop's.
                started = perf_counter()
                deliver(packet)
                recorder.record_timing(self._timing_label, perf_counter() - started)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PacketArrivalStream {self._pos}/{self._len}"
            f" base_seq={self._base_seq}>"
        )
