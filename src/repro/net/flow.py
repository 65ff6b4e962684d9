"""Flow keys and the gateway's flow table.

The gateway tracks flows for two reasons the paper calls out:

* **Dispatch** — subsequent packets of a flow must reach the same VM that
  handled the first packet, even if the address→VM binding has since been
  recycled.
* **Containment accounting** — outbound policy (rate limits, "one response
  flow per inbound flow") is stated in terms of flows, not packets.

A flow is identified by its canonical 5-tuple of ints, ``(addr_high,
port_high, addr_low, port_low, protocol)`` with the endpoints ordered
high first by (address value, port), so both directions of a
conversation map to the same key (:func:`flow_key`). A plain tuple:
hashed in C, and shared by every index that names the flow. High first
because the darknet sits low in the address space: 96.1 % of
``radiation_span``'s arrival keys (96.7 % ``mixed_storm``, 96.9 %
``vm_churn``) come from a source above the darknet, and such an
Internet→darknet arrival tuple ``(src, src_port, dst, dst_port,
protocol)`` *is* its flow's key, so the span lane files the trace's own
tuple and builds none.

**Rows.** The table holds every live flow, emulated or VM-backed, as one
row of typed columns: ``first_seen`` and ``last_seen`` in ``array('d')``;
``packets``, ``bytes``, ``initiator`` (the address value that opened the
flow), ``vm_id`` (:data:`NO_VM` when unbound), ``serial`` and ``verdict``
in ``array('q')``; and ``keys``, the row's 5-tuple. One dict, ``index``,
maps each key to its dense row id. Rows are handed out from a free list:
a removed flow's row goes back on it, and when it runs dry every column
grows by a block of rows at once. When the table empties, every column
is released, so a drained table holds no capacity. A live flow costs a
fixed number of bytes, not a handful of objects.

``verdict`` is the emulator tier's answer for the flow, written by the
span lane and read by nothing else (:mod:`repro.fidelity.span`); a new
row's is 0, no verdict. Like ``vm_id`` it is per-flow state, so it lives
and dies with the row.

**The row serial.** Every new flow stamps its row with a serial drawn
from a counter that only rises; freeing the row zeroes it. Whoever keeps
a row id beyond the call that produced it keeps the serial with it — a
:class:`FlowRecord` view, an expiry bucket — and the row is still its
flow exactly while the serials agree. A reused row has a new serial, so
nothing written through a stale holder can land on the flow that moved
in.

**Expiry over rows.** Records expire after a configurable idle interval;
expiry is checked lazily on access and via an explicit
:meth:`FlowTable.expire_idle` sweep, so no timer per flow exists. The
sweep visits only flows old enough to possibly be idle: coarse time
buckets over ``last_seen`` list ``(row, serial)`` pairs. One bucket
policy: a row is filed under its creation time by :meth:`FlowTable.create`
and *not* moved when later packets touch it. :meth:`FlowTable.expire_idle`
visits every bucket old enough to hold an expirable row, and refiles the
rows it finds still live under their true ``last_seen``. A row's bucket is
therefore never later than its ``last_seen`` one, so the sweep that
should expire it always visits it: expiry timing and counts are those of
re-bucketing on every packet, without the per-packet moves. A live row
has exactly one bucket entry (a sweep empties each bucket it visits
before refiling), so an entry is current exactly while its serial is;
one whose row was freed is dropped when its bucket is swept.

A **per-VM index** (``vm_id`` → rows) lets reclaiming a VM drop its
residual flow state without touching unrelated flows. Most VMs serve one
flow, so a VM's entry is its row id until a second row arrives, and a
set of row ids from then on.
"""

from __future__ import annotations

from array import array
from typing import Collection, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.net.addr import IPAddress
from repro.net.packet import Packet

__all__ = ["NO_VM", "FiveTuple", "FlowRecord", "FlowTable", "flow_key", "packet_flow_key"]

#: ``(addr_high, port_high, addr_low, port_low, protocol)``, addresses as
#: their int values: a flow's canonical key.
FiveTuple = Tuple[int, int, int, int, int]

#: The ``vm_id`` column's value for a flow bound to no VM.
NO_VM = -1


def _rows_of(entry: Union[int, Collection[int]]) -> Collection[int]:
    """The row ids a per-VM index entry names (see the module docstring)."""
    return (entry,) if type(entry) is int else entry


def flow_key(src: int, src_port: int, dst: int, dst_port: int, protocol: int) -> FiveTuple:
    """Canonical key of the conversation between two endpoints (address
    values), given in either direction: endpoints ordered high first by
    (address, port), so an arrival from above the destination is its own
    key."""
    if src > dst or (src == dst and src_port >= dst_port):
        return (src, src_port, dst, dst_port, protocol)
    return (dst, dst_port, src, src_port, protocol)


def packet_flow_key(packet: Packet) -> FiveTuple:
    """Canonical key of ``packet``'s conversation."""
    return flow_key(
        packet.src.value, packet.src_port, packet.dst.value, packet.dst_port,
        packet.protocol,
    )


class FlowRecord:
    """A view of one flow's row, as the per-packet lane handles it:
    ``(table, row, serial)``.

    While the row still holds the flow the view was made for, reads and
    writes go to the table's columns, and binding it to a VM
    (``record.vm_id = ...``) keeps the per-VM index consistent. Once the
    row is freed (expired, dropped, discarded) the view is detached:
    :attr:`attached` reads False, reading a field raises
    :class:`LookupError`, and writes touch nothing — so a reused row is
    never written through a stale view."""

    __slots__ = ("table", "row", "serial")

    def __init__(self, table: "FlowTable", row: int, serial: int) -> None:
        self.table = table
        self.row = row
        self.serial = serial

    @property
    def attached(self) -> bool:
        return self.table.holds(self.row, self.serial)

    def _live_row(self) -> int:
        if not self.table.holds(self.row, self.serial):
            raise LookupError("flow record detached: its flow left the table")
        return self.row

    @property
    def key(self) -> FiveTuple:
        return self.table.keys[self._live_row()]

    @property
    def first_seen(self) -> float:
        return self.table.first_seen[self._live_row()]

    @property
    def last_seen(self) -> float:
        return self.table.last_seen[self._live_row()]

    @property
    def initiator(self) -> IPAddress:
        return IPAddress(self.table.initiator[self._live_row()])

    @property
    def packets(self) -> int:
        return self.table.packets[self._live_row()]

    @packets.setter
    def packets(self, value: int) -> None:
        if self.table.holds(self.row, self.serial):
            self.table.packets[self.row] = value

    @property
    def bytes(self) -> int:
        return self.table.bytes[self._live_row()]

    @bytes.setter
    def bytes(self, value: int) -> None:
        if self.table.holds(self.row, self.serial):
            self.table.bytes[self.row] = value

    @property
    def vm_id(self) -> Optional[int]:
        vm_id = self.table.vm_id[self._live_row()]
        return None if vm_id == NO_VM else vm_id

    @vm_id.setter
    def vm_id(self, value: Optional[int]) -> None:
        if self.table.holds(self.row, self.serial):
            self.table.bind(self.row, NO_VM if value is None else value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.attached:
            return f"<FlowRecord row={self.row} detached>"
        return (
            f"<FlowRecord key={self.key} first_seen={self.first_seen}"
            f" last_seen={self.last_seen} initiator={self.initiator}"
            f" packets={self.packets} bytes={self.bytes} vm_id={self.vm_id}>"
        )


class FlowTable:
    """Live flows as rows, with idle-based expiry (module docstring).

    ``idle_timeout`` matches the gateway's flow-inactivity horizon; once a
    flow has been silent that long it is forgotten, and a new packet on the
    same 5-tuple starts a fresh row (and may be dispatched to a new VM).
    """

    #: Buckets per idle-timeout window; coarser buckets mean fewer moves,
    #: finer buckets mean tighter expiry scans. 8 keeps both trivial.
    _BUCKETS_PER_TIMEOUT = 8

    #: The typed columns.
    COLUMNS = (
        "first_seen", "last_seen", "packets", "bytes", "initiator", "vm_id",
        "serial", "verdict",
    )
    #: Rows added per growth, at least; else an eighth of the table.
    _GROWTH = 64

    def __init__(self, idle_timeout: float = 60.0) -> None:
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout!r}")
        self.idle_timeout = idle_timeout
        self.first_seen = array("d")
        self.last_seen = array("d")
        self.packets = array("q")
        self.bytes = array("q")
        self.initiator = array("q")
        self.vm_id = array("q")
        self.serial = array("q")
        self.verdict = array("q")
        self.keys: List[Optional[FiveTuple]] = []
        self.index: Dict[FiveTuple, int] = {}
        self._free = array("q")
        self._by_vm: Dict[int, Union[int, Set[int]]] = {}
        self._buckets: Dict[int, array] = {}
        self._granularity = max(idle_timeout / self._BUCKETS_PER_TIMEOUT, 1e-9)
        self._serials_issued = 0
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: FiveTuple) -> bool:
        return key in self.index

    def holds(self, row: int, serial: int) -> bool:
        """Whether ``row`` still holds the flow that was stamped
        ``serial``."""
        serials = self.serial
        return row < len(serials) and serials[row] == serial

    def record(self, row: int) -> FlowRecord:
        """A view of the live ``row``."""
        return FlowRecord(self, row, self.serial[row])

    # ------------------------------------------------------------------ #
    # Row maintenance
    # ------------------------------------------------------------------ #

    def bind(self, row: int, vm_id: int) -> None:
        """Bind the live ``row`` to ``vm_id`` (:data:`NO_VM` unbinds),
        keeping the per-VM index consistent."""
        old = self.vm_id[row]
        if vm_id == old:
            return
        self.vm_id[row] = vm_id
        if old != NO_VM:
            self._unindex_vm(row, old)
        if vm_id != NO_VM:
            rows = self._by_vm.get(vm_id)
            if rows is None:
                self._by_vm[vm_id] = row
            elif type(rows) is int:
                self._by_vm[vm_id] = {rows, row}
            else:
                rows.add(row)

    def _unindex_vm(self, row: int, vm_id: int) -> None:
        rows = self._by_vm.get(vm_id)
        if rows is None:
            return
        if type(rows) is int:
            if rows == row:
                del self._by_vm[vm_id]
            return
        rows.discard(row)
        if not rows:
            del self._by_vm[vm_id]

    def _file(self, row: int, serial: int, bucket: int) -> None:
        filed = self._buckets.get(bucket)
        if filed is None:
            filed = self._buckets[bucket] = array("q")
        filed.append(row)
        filed.append(serial)

    def _grow(self) -> None:
        """Add a block of free rows to every column."""
        first = len(self.keys)
        added = max(self._GROWTH, first >> 3)
        zeros = bytes(8 * added)
        for name in self.COLUMNS:
            getattr(self, name).frombytes(zeros)
        self.keys.extend([None] * added)
        # Descending, so rows are handed out lowest first.
        self._free.extend(range(first + added - 1, first - 1, -1))

    def _free_row(self, row: int) -> None:
        """Forget the flow in live ``row``; the row joins the free list.
        Its bucket entry stays behind, dead, until its bucket is swept."""
        del self.index[self.keys[row]]
        self.keys[row] = None
        vm_id = self.vm_id[row]
        if vm_id != NO_VM:
            self._unindex_vm(row, vm_id)
        self.serial[row] = 0
        self._free.append(row)

    def _release_if_empty(self) -> None:
        """With no live flow left, let go of every column's capacity and
        every index (each names only freed rows)."""
        if self.index or not self.keys:
            return
        for name in self.COLUMNS:
            del getattr(self, name)[:]
        del self._free[:]
        self.keys.clear()
        self.index.clear()
        self._by_vm.clear()
        self._buckets.clear()

    # ------------------------------------------------------------------ #
    # Per-packet operations
    # ------------------------------------------------------------------ #

    def lookup(self, packet: Packet, now: float) -> Optional[FlowRecord]:
        """A view of this packet's live flow, or None.

        A flow past its idle timeout is treated as absent (and removed),
        so callers never observe stale flows regardless of sweep timing.
        """
        row = self.live_record(packet_flow_key(packet), now)
        return None if row is None else self.record(row)

    def observe(self, packet: Packet, now: float) -> Tuple[FlowRecord, bool]:
        """Account ``packet``; returns ``(view of its flow, is_new_flow)``."""
        return self.observe_keyed(packet_flow_key(packet), packet, now)

    def observe_keyed(
        self, key: FiveTuple, packet: Packet, now: float
    ) -> Tuple[FlowRecord, bool]:
        """The body of :meth:`observe`, taking the packet's canonical key.

        Its own method only because ``benchmarks/e2e/layers.py`` wraps
        this name to count and time flow-table observations.
        """
        row = self.live_record(key, now)
        created = row is None
        if created:
            row = self.create(key, packet.src.value, now)
        self.last_seen[row] = now
        self.packets[row] += 1
        self.bytes[row] += packet.size
        return FlowRecord(self, row, self.serial[row]), created

    def live_record(self, key: FiveTuple, now: float) -> Optional[int]:
        """The row of the flow under ``key`` if it is still live at
        ``now``, else None.

        The table's one lazy-expiry rule: a flow silent for strictly
        more than ``idle_timeout`` is removed, counted in
        ``expired_total`` and reported absent. The row is not touched.
        """
        row = self.index.get(key)
        if row is not None and now - self.last_seen[row] > self.idle_timeout:
            self._free_row(row)
            self.expired_total += 1
            self._release_if_empty()
            return None
        return row

    def create(self, key: FiveTuple, initiator: int, now: float) -> int:
        """Register a brand-new flow (no packet accounted yet) opened by
        the address value ``initiator``; returns its row.

        The row is indexed and bucketed at ``now`` but carries zero
        packets/bytes: :meth:`observe_keyed` touches it next, the span
        lane applies its own per-packet arithmetic. Written column by
        column and filed inline, because this runs once per unique flow
        of a replay.
        """
        if not self._free:
            self._grow()
        row = self._free.pop()
        self._serials_issued += 1
        serial = self._serials_issued
        self.first_seen[row] = now
        self.last_seen[row] = now
        self.packets[row] = 0
        self.bytes[row] = 0
        self.initiator[row] = initiator
        self.vm_id[row] = NO_VM
        self.serial[row] = serial
        self.verdict[row] = 0
        self.keys[row] = key
        self.index[key] = row
        bucket = int(now / self._granularity)
        filed = self._buckets.get(bucket)
        if filed is None:
            filed = self._buckets[bucket] = array("q")
        filed.append(row)
        filed.append(serial)
        return row

    # ------------------------------------------------------------------ #
    # Sweeps and reclamation
    # ------------------------------------------------------------------ #

    def discard(self, record: FlowRecord) -> None:
        """Forget ``record``'s flow if it is still live (no-op otherwise).

        Used by the gateway to unwind a flow created for a packet that
        was then refused (e.g. pending-queue overflow) — the flow never
        reached a VM, so it must not linger in the table.
        """
        if record.table is self and record.attached:
            self._free_row(record.row)
            self._release_if_empty()

    def expire_idle(self, now: float) -> List[FiveTuple]:
        """Remove every flow idle past the timeout; returns their keys.

        Incremental: only buckets whose entire time range is old enough to
        contain expired flows are visited, so a sweep's cost tracks the
        number of *expirable* flows, not the number of live ones.
        """
        timeout = self.idle_timeout
        granularity = self._granularity
        boundary = int((now - timeout) / granularity)
        buckets = self._buckets
        serials = self.serial
        last_seen = self.last_seen
        expired: List[FiveTuple] = []
        for index in sorted(b for b in buckets if b <= boundary):
            filed = buckets.pop(index)
            for k in range(0, len(filed), 2):
                row = filed[k]
                serial = filed[k + 1]
                if serials[row] != serial:
                    continue  # freed since it was filed
                seen = last_seen[row]
                if now - seen > timeout:
                    expired.append(self.keys[row])
                    self._free_row(row)
                else:
                    # Touched since it was filed: refile it under its
                    # true last_seen (the module docstring's one policy).
                    self._file(row, serial, int(seen / granularity))
        self.expired_total += len(expired)
        self._release_if_empty()
        return expired

    def flows_for_vm(self, vm_id: int) -> List[FlowRecord]:
        """Views of all live flows currently bound to ``vm_id``."""
        return [self.record(row) for row in _rows_of(self._by_vm.get(vm_id, ()))]

    def drop_vm(self, vm_id: int) -> int:
        """Forget all flows bound to a reclaimed VM; returns count dropped."""
        rows = _rows_of(self._by_vm.pop(vm_id, ()))
        for row in rows:
            self._free_row(row)
        self._release_if_empty()
        return len(rows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter([self.record(row) for row in self.index.values()])
