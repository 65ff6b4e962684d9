"""The columnar trace, and its batched replay into the simulator loop.

:class:`PacketColumns` is the in-memory trace: five parallel columns,
filled by the workload generators and read by everything downstream,
with :class:`TraceRecord` as the row a reader sees when it indexes or
iterates one. The columns carry addresses as 32-bit values, as the flow
table does; dotted quads exist only in a :class:`TraceRecord` (and the
JSONL lines it is written as), which is where the two forms meet. The
common packet — background radiation the emulator tier absorbs — is a
row from the generator to the handoff buffer and never an object of its
own.

:class:`PacketArrivalStream` replays a trace without a heap entry, an
``Event`` object or a dispatch-loop pass per packet: it walks one trace
attachment's columns in place (a struct-of-arrays layout, so no
per-arrival container is ever allocated and attaching copies nothing),
reserves a contiguous block of tie-break
sequence numbers at attach time, and :meth:`Simulator.run` merges it
against the event heap by ``(time, seq)``.

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

* **span lane** — offered when the stream has a ``deliver_span`` and no
  flight recorder is installed: a whole *multi-timestamp* run of
  arrivals, bounded by the next heap event / ``until`` via binary
  search, goes to ``deliver_span(columns, start, limit)``
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

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import lt
from time import perf_counter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.net.addr import IPAddress, dotted
from repro.net.packet import PROTO_TCP, Packet, TcpFlags
from repro.obs import recorder as _obs
from repro.sim.engine import SimulationError, Simulator

__all__ = ["ArrivalKey", "PacketArrivalStream", "PacketColumns", "TraceRecord"]

#: ``(src, src_port, dst, dst_port, protocol)``, addresses as 32-bit
#: values: a flow key's field order, injective per conversation direction.
ArrivalKey = Tuple[int, int, int, int, int]

_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


def _row_packet(key: ArrivalKey, payload: str, size: int, tcp_flags: int) -> Packet:
    """The one row -> :class:`Packet` function. ``tcp_flags`` 0 means
    infer (a SYN, or PSH|ACK for a data segment). Ports and size are
    validated by ``Packet`` itself."""
    src, src_port, dst, dst_port, protocol = key
    if protocol != PROTO_TCP:
        flags = TcpFlags.NONE
    elif tcp_flags:
        flags = TcpFlags(tcp_flags)
    elif payload:
        flags = _PSH_ACK
    else:
        flags = TcpFlags.SYN
    return Packet(src, dst, protocol, src_port, dst_port, flags, 0, payload, size)


@dataclass(frozen=True)
class TraceRecord:
    """One packet arrival as a row: what iterating or indexing a
    :class:`PacketColumns` trace yields, what a JSONL line parses to, and
    what hand-built traces are lists of. Addresses are dotted-quad
    strings so the on-disk format is self-describing: :attr:`key` parses
    them into the values a trace's columns hold, and
    :meth:`from_columns` formats those back."""

    time: float
    src: str
    dst: str
    protocol: int
    src_port: int = 0
    dst_port: int = 0
    payload: str = ""
    size: int = 40
    tcp_flags: int = 0  # 0 = infer from payload (SYN, or PSH|ACK for data)

    @cached_property
    def key(self) -> ArrivalKey:
        """The row's arrival key, its addresses parsed (once per row); a
        malformed or non-string address raises here."""
        return (
            int(IPAddress.parse(self.src)), self.src_port,
            int(IPAddress.parse(self.dst)), self.dst_port, self.protocol,
        )

    @classmethod
    def from_columns(
        cls, time: float, key: ArrivalKey, payload: str, size: int, tcp_flags: int
    ) -> "TraceRecord":
        """The row holding one entry of each trace column."""
        src, src_port, dst, dst_port, protocol = key
        return cls(
            time, dotted(src), dotted(dst), protocol, src_port,
            dst_port, payload, size, tcp_flags,
        )

    def to_packet(self) -> Packet:
        """Materialize the packet (see :func:`_row_packet`)."""
        return _row_packet(self.key, self.payload, self.size, self.tcp_flags)


class PacketColumns(Sequence[TraceRecord]):
    """A packet trace as a struct of arrays: the in-memory trace.

    Five parallel columns, one entry per arrival: ``times`` (an
    ``array('d')``: one unboxed double a row), ``keys`` (the
    :data:`ArrivalKey` 5-tuple of ints, one tuple shared by the packets
    of a burst), ``payloads``, ``sizes``, ``tcp_flags`` (lists: sizes and
    flags are small cached ints, payloads are shared per source).
    Generators append to the five columns and hand them over (adopted,
    not copied; a ``times`` that is not yet an
    ``array('d')`` becomes one, so every trace has the same column
    types whoever built it); nothing writes to them afterwards. As a
    read-only sequence the trace yields :class:`TraceRecord` rows — ``len``, iteration, ``trace[i]``,
    ``trace[a:b]`` (a trace) and ``==`` (against a trace or a list of
    rows) — so analysis code and tests read it like the record list it
    replaces, while the replay path never builds a row.

    A background-radiation packet is absorbed by the gateway's span lane
    without ever becoming an object: building a
    :class:`~repro.net.packet.Packet` (~6 µs) costs more than the span
    lane spends on a whole row, so :meth:`packet_at` builds one only when a row
    leaves the span lane: the per-packet lane delivers it, a promotion
    hands over its buffer, or the span lane classifies a row by a sample
    it then throws away. Each call builds a new packet, owned by its
    caller, so every build is counted where it happens.

    The columns are immutable and may be shared. A delivered ``Packet``
    belongs to the farm it was handed to, which may rewrite it in place
    (see :mod:`repro.net.packet`); a trace's packets are therefore built
    per delivery, never shared. Every replay of a trace takes its own
    :meth:`attachment`, the same column lists under a ``prev`` of its
    own: per row, the link its address's handoff chain held before it
    (an ``array('q')`` the span lane allocates on first use, None until
    then; see :class:`~repro.fidelity.emulator.AddressTable`).
    """

    __slots__ = ("times", "keys", "payloads", "sizes", "tcp_flags", "prev")

    def __init__(
        self,
        times: Iterable[float],
        keys: List[ArrivalKey],
        payloads: List[str],
        sizes: List[int],
        tcp_flags: List[int],
    ) -> None:
        if type(times) is not array:
            times = array("d", times)
        n = len(times)
        if not (len(keys) == len(payloads) == len(sizes) == len(tcp_flags) == n):
            raise ValueError(
                "trace columns differ in length:"
                f" {n} times, {len(keys)} keys, {len(payloads)} payloads,"
                f" {len(sizes)} sizes, {len(tcp_flags)} tcp_flags"
            )
        self.times = times
        self.keys = keys
        self.payloads = payloads
        self.sizes = sizes
        self.tcp_flags = tcp_flags
        self.prev: Optional[array] = None

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "PacketColumns":
        """The trace holding ``records`` — the one way rows (a hand-built
        list, a JSONL reader) become columns, consumed one at a time. A
        trace is returned as is."""
        if isinstance(records, cls):
            return records
        columns = (array("d"), [], [], [], [])
        times, keys, payloads, sizes, tcp_flags = columns
        for row in records:
            times.append(float(row.time))
            keys.append(row.key)
            payloads.append(row.payload)
            sizes.append(row.size)
            tcp_flags.append(row.tcp_flags)
        return cls(*columns)

    def attachment(self) -> "PacketColumns":
        """This trace for one replay: shared columns, a ``prev`` of its
        own (see the class docstring)."""
        return PacketColumns(*self._columns())

    def sorted_by_time(self, limit: Optional[int] = None) -> "PacketColumns":
        """The first ``limit`` rows (all, if None) in time order. Stable:
        rows at equal times keep their order, as ``list.sort`` over rows
        would. One index permutation, then one gather per column."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative or None: {limit!r}")
        # The times boxed once, in C: the sort's keys and the gather read
        # the list, and the constructor packs the gathered one back.
        times = self.times.tolist()
        order = sorted(range(len(times)), key=times.__getitem__)
        if limit is not None:
            del order[limit:]
        return PacketColumns(*(
            list(map(column.__getitem__, order))
            for column in (times, self.keys, self.payloads, self.sizes, self.tcp_flags)
        ))

    def take(self, rows: Iterable[int]) -> "PacketColumns":
        """The trace of ``rows``, in the order given."""
        rows = list(rows)
        return PacketColumns(*(
            list(map(column.__getitem__, rows)) for column in self._columns()
        ))

    def _columns(self) -> Tuple[array, list, list, list, list]:
        return self.times, self.keys, self.payloads, self.sizes, self.tcp_flags

    def packet_at(self, i: int) -> Packet:
        """A new packet for row ``i``, the caller's."""
        return _row_packet(
            self.keys[i], self.payloads[i], self.sizes[i], self.tcp_flags[i]
        )

    def to_packets(self) -> Iterator[Packet]:
        """A new packet per row, in row order: the trace as a replay that
        owns its packets outright."""
        return map(_row_packet, self.keys, self.payloads, self.sizes, self.tcp_flags)

    # ------------------------------------------------------------------ #
    # Read-only sequence of rows
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord.from_columns, *self._columns())

    def __getitem__(self, index):
        entries = (column[index] for column in self._columns())
        if isinstance(index, slice):
            return PacketColumns(*entries)
        return TraceRecord.from_columns(*entries)

    def __add__(self, other: "PacketColumns") -> "PacketColumns":
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return PacketColumns(*(
            mine + theirs for mine, theirs in zip(self._columns(), other._columns())
        ))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PacketColumns):
            return self._columns() == other._columns()
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        # Columns only: ``prev`` belongs to one replay.
        return PacketColumns, self._columns()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PacketColumns n={len(self)}>"


class PacketArrivalStream:
    """A time-sorted packet workload merged into ``Simulator.run``.

    ``columns`` is one replay's :meth:`PacketColumns.attachment`, kept
    by reference: its ``times`` must be non-decreasing, the only pass
    over them is that check, and the per-packet lane builds each packet
    it delivers (:meth:`PacketColumns.packet_at`). ``deliver`` is the
    per-packet injection callable the per-event loop would have
    scheduled (``farm.inject``);
    ``deliver_span(columns, start, limit) -> consumed``, if given, is
    offered each run of arrivals first.
    """

    __slots__ = (
        "_sim",
        "_times",
        "_deliver",
        "_columns",
        "_deliver_span",
        "_pos",
        "_len",
        "_base_seq",
    )

    def __init__(
        self,
        sim: Simulator,
        columns: PacketColumns,
        deliver: Callable[[Packet], None],
        deliver_span: Optional[Callable[[PacketColumns, int, int], int]] = None,
    ) -> None:
        times = columns.times
        if any(map(lt, islice(times, 1, None), times)):  # C-speed scan
            bad = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
            raise SimulationError(
                f"arrival times must be non-decreasing: item {bad} at"
                f" t={times[bad]!r} after t={times[bad - 1]!r}"
            )
        self._sim = sim
        self._times = times
        self._deliver = deliver
        self._columns = columns
        self._deliver_span = deliver_span
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
        self, until: Optional[float], limit_key: Optional[Tuple[float, int]]
    ) -> None:
        sim = self._sim
        times = self._times
        base = self._base_seq
        n = self._len
        i = self._pos
        deliver_span = self._deliver_span
        columns = self._columns
        while i < n:
            t = times[i]
            if until is not None and t > until:
                break
            key = (t, base + i)
            if limit_key is not None and limit_key < key:
                break
            queue = sim._queue  # re-read: compaction rebinds the list
            # A (time, seq, event) entry: its seq is not this arrival's,
            # so the comparison never reaches the event.
            head = queue[0] if queue else None
            if head is not None and head < key:
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
                    lim = self._span_limit(head[0], head[1], i, lim)
                if limit_key is not None:
                    lim = self._span_limit(limit_key[0], limit_key[1], i, lim)
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
                        continue
            end = self._batch_end(i, t)
            sim.advance_for_stream(t, end - i)
            self._pos = end  # before dispatch: callbacks may inspect us
            self._dispatch_slice(i, end)
            i = end

    # ------------------------------------------------------------------ #
    # Per-packet lane
    # ------------------------------------------------------------------ #

    def _dispatch_slice(self, start: int, end: int) -> None:
        recorder = _obs.ACTIVE
        packet_at = self._columns.packet_at
        deliver = self._deliver
        for k in range(start, end):
            packet = packet_at(k)
            if recorder is None:
                deliver(packet)
            else:
                # The per-subsystem timing attribution Simulator.step
                # applies to a scheduled ``farm.inject`` ("farm"), so
                # recorded traces are bit-identical to the per-event loop's.
                started = perf_counter()
                deliver(packet)
                recorder.record_timing("farm", perf_counter() - started)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PacketArrivalStream {self._pos}/{self._len}"
            f" base_seq={self._base_seq}>"
        )
