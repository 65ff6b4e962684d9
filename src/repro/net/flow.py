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
row of typed columns (a :class:`~repro.sim.rows.RowTable`: rows, the row
serial and expiry over rows are described there): ``first_seen`` and
``last_seen`` in ``array('d')``; ``packets``, ``bytes``, ``initiator``
(the address value that opened the flow), ``vm_id`` (:data:`NO_VM` when
unbound), ``serial`` and ``verdict`` in ``array('q')``; and ``keys``, the
row's 5-tuple. :meth:`FlowTable.observe` hands back the row itself, for
use within the call; whoever keeps a flow beyond it (a packet queued
while its VM clones) takes a :class:`FlowRecord` view
(:meth:`FlowTable.record`), which keeps its row's serial, so nothing
written through a stale view lands on the flow that moved in.

``verdict`` is the emulator tier's answer for the flow, written by the
span lane and read by nothing else (:mod:`repro.fidelity.span`); a new
row's is 0, no verdict. Like ``vm_id`` it is per-flow state, so it lives
and dies with the row.

**Expiry.** Records expire after a configurable idle interval; expiry is
checked lazily on access (:meth:`FlowTable.live_record`) and via the
table's creation-bucket sweep, :meth:`~repro.sim.rows.RowTable.expire_idle`,
so no timer per flow exists and a sweep visits only flows old enough to
possibly be idle.

A **per-VM index** (``vm_id`` → rows) lets reclaiming a VM drop its
residual flow state without touching unrelated flows. Most VMs serve one
flow, so a VM's entry is its row id until a second row arrives, and a
set of row ids from then on.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.net.packet import Packet
from repro.sim.rows import RowTable

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
        packet.src, packet.src_port, packet.dst, packet.dst_port, packet.protocol
    )


class FlowRecord:
    """A view of one flow's row, for a holder that keeps the flow beyond
    the call that observed it (a packet queued while its VM clones):
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
    def initiator(self) -> int:
        return self.table.initiator[self._live_row()]

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


class FlowTable(RowTable):
    """Live flows as rows, with idle-based expiry (module docstring).

    ``idle_timeout`` matches the gateway's flow-inactivity horizon; once a
    flow has been silent that long it is forgotten, and a new packet on the
    same 5-tuple starts a fresh row (and may be dispatched to a new VM).
    """

    COLUMNS = {
        "first_seen": "d", "last_seen": "d", "packets": "q", "bytes": "q",
        "initiator": "q", "vm_id": "q", "serial": "q", "verdict": "q",
    }

    def __init__(self, idle_timeout: float = 60.0) -> None:
        super().__init__(idle_timeout)
        self._by_vm: Dict[int, Union[int, Set[int]]] = {}

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

    def _free_rows(self, rows: Sequence[int]) -> None:
        vm_ids = self.vm_id
        for row in rows:
            vm_id = vm_ids[row]
            if vm_id != NO_VM:
                self._unindex_vm(row, vm_id)
        super()._free_rows(rows)

    def _release_if_empty(self) -> None:
        super()._release_if_empty()
        if not self.index:
            self._by_vm.clear()  # empty already; this lets go of its capacity

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

    def observe(self, packet: Packet, now: float) -> Tuple[int, bool]:
        """Account ``packet``; returns ``(its flow's row, is_new_flow)``.
        The row holds the flow until the table frees it (a sweep,
        :meth:`drop_vm`, :meth:`discard`): to keep the flow beyond the
        call, keep :meth:`record` of the row, not the row."""
        return self.observe_keyed(packet_flow_key(packet), packet, now)

    def observe_keyed(
        self, key: FiveTuple, packet: Packet, now: float
    ) -> Tuple[int, bool]:
        """The body of :meth:`observe`, taking the packet's canonical key.

        Its own method only because ``benchmarks/e2e/layers.py`` wraps
        this name to count and time flow-table observations.
        """
        row = self.live_record(key, now)
        created = row is None
        if created:
            row = self.create(key, packet.src, now)
        self.last_seen[row] = now
        self.packets[row] += 1
        self.bytes[row] += packet.size
        return row, created

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
        lane applies its own per-packet arithmetic.
        """
        row = self._open(key, now)
        self.first_seen[row] = now
        self.packets[row] = 0
        self.bytes[row] = 0
        self.initiator[row] = initiator
        self.vm_id[row] = NO_VM
        self.verdict[row] = 0
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

    def flows_for_vm(self, vm_id: int) -> List[FlowRecord]:
        """Views of all live flows currently bound to ``vm_id``."""
        return [self.record(row) for row in _rows_of(self._by_vm.get(vm_id, ()))]

    def drop_vm(self, vm_id: int) -> int:
        """Forget all flows bound to a reclaimed VM; returns count dropped."""
        rows = _rows_of(self._by_vm.pop(vm_id, ()))
        self._free_rows(list(rows))
        self._release_if_empty()
        return len(rows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter([self.record(row) for row in self.index.values()])
