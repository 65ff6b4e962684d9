"""Flow keys and the gateway's flow table.

The gateway tracks flows for two reasons the paper calls out:

* **Dispatch** — subsequent packets of a flow must reach the same VM that
  handled the first packet, even if the address→VM binding has since been
  recycled.
* **Containment accounting** — outbound policy (rate limits, "one response
  flow per inbound flow") is stated in terms of flows, not packets.

Flows are identified by the canonical (sorted) 5-tuple so both directions
of a conversation map to the same record. Records expire after a
configurable idle interval; expiry is checked lazily on access and via an
explicit :meth:`FlowTable.expire_idle` sweep, so no timer per flow exists.

This module sits on the gateway's per-packet fast path, so the table keeps
two auxiliary indexes updated in O(1) per operation instead of scanning
every live flow:

* a **per-VM index** (``vm_id`` → flows) so reclaiming a VM drops its
  residual flow state without touching unrelated flows, and
* **last-seen buckets** (coarse time buckets over ``last_seen``) so
  :meth:`expire_idle` visits only flows old enough to possibly be idle.

One bucket policy: a record is filed under its creation time by
:meth:`FlowTable.create` and *not* moved when later packets touch it.
:meth:`FlowTable.expire_idle` visits every bucket old enough to hold an
expirable record, and refiles the records it finds still live under
their true ``last_seen``. A record's bucket is therefore never later
than its ``last_seen`` one, so the sweep that should expire it always
visits it: expiry timing and counts are those of re-bucketing on every
packet, without the per-packet dict moves.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.addr import IPAddress
from repro.net.packet import Packet

__all__ = ["FlowKey", "FlowRecord", "FlowTable"]


class FlowKey:
    """Direction-independent 5-tuple identifying a conversation.

    Treat instances as immutable; the hash is computed once at
    construction (keys are hashed at least twice per packet).
    """

    __slots__ = ("addr_low", "port_low", "addr_high", "port_high", "protocol", "_hash")

    def __init__(
        self,
        addr_low: IPAddress,
        port_low: int,
        addr_high: IPAddress,
        port_high: int,
        protocol: int,
    ) -> None:
        self.addr_low = addr_low
        self.port_low = port_low
        self.addr_high = addr_high
        self.port_high = port_high
        self.protocol = protocol
        self._hash = hash(
            (addr_low.value, port_low, addr_high.value, port_high, protocol)
        )

    @classmethod
    def between(
        cls, src: IPAddress, src_port: int, dst: IPAddress, dst_port: int, protocol: int
    ) -> "FlowKey":
        """Canonical key of the conversation between two endpoints, given
        in either direction: endpoints ordered by (address, port)."""
        sv = src.value
        dv = dst.value
        if sv < dv or (sv == dv and src_port <= dst_port):
            return cls(src, src_port, dst, dst_port, protocol)
        return cls(dst, dst_port, src, src_port, protocol)

    @classmethod
    def from_packet(cls, packet: Packet) -> "FlowKey":
        """Canonical key of ``packet``'s conversation."""
        return cls.between(
            packet.src, packet.src_port, packet.dst, packet.dst_port, packet.protocol
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        # Raw-int field compares: this runs on every flow-dict hit, and
        # going through IPAddress.__eq__ costs a method call per endpoint.
        return (
            self._hash == other._hash
            and self.port_low == other.port_low
            and self.port_high == other.port_high
            and self.protocol == other.protocol
            and self.addr_low.value == other.addr_low.value
            and self.addr_high.value == other.addr_high.value
        )

    def __str__(self) -> str:
        return (
            f"{self.addr_low}:{self.port_low}<->{self.addr_high}:{self.port_high}"
            f"/{self.protocol}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowKey(addr_low={self.addr_low!r}, port_low={self.port_low},"
            f" addr_high={self.addr_high!r}, port_high={self.port_high},"
            f" protocol={self.protocol})"
        )


class FlowRecord:
    """Mutable per-flow state kept by the gateway.

    Binding a record to a VM (``record.vm_id = ...``) keeps the owning
    table's per-VM index consistent automatically; records detached from a
    table (expired, dropped, or constructed standalone) update only the
    attribute.
    """

    __slots__ = (
        "key",
        "first_seen",
        "last_seen",
        "initiator",
        "packets",
        "bytes",
        "_vm_id",
        "_table",
        "_bucket",
    )

    def __init__(
        self,
        key: FlowKey,
        first_seen: float,
        last_seen: float,
        initiator: IPAddress,
        packets: int = 0,
        bytes: int = 0,
        vm_id: Optional[int] = None,
    ) -> None:
        self.key = key
        self.first_seen = first_seen
        self.last_seen = last_seen
        self.initiator = initiator
        self.packets = packets
        self.bytes = bytes
        self._vm_id = vm_id
        self._table: Optional["FlowTable"] = None
        self._bucket: Optional[int] = None

    @property
    def vm_id(self) -> Optional[int]:
        return self._vm_id

    @vm_id.setter
    def vm_id(self, value: Optional[int]) -> None:
        old = self._vm_id
        if value == old:
            return
        self._vm_id = value
        table = self._table
        if table is not None:
            table._rebind_vm(self, old, value)

    def touch(self, packet: Packet, now: float) -> None:
        """Account one more packet on this flow."""
        self.last_seen = now
        self.packets += 1
        self.bytes += packet.size

    def idle_for(self, now: float) -> float:
        return now - self.last_seen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowRecord(key={self.key!r}, first_seen={self.first_seen},"
            f" last_seen={self.last_seen}, initiator={self.initiator!r},"
            f" packets={self.packets}, bytes={self.bytes}, vm_id={self._vm_id})"
        )


class FlowTable:
    """Dictionary of live flows with idle-based expiry.

    ``idle_timeout`` matches the gateway's flow-inactivity horizon; once a
    flow has been silent that long it is forgotten, and a new packet on the
    same 5-tuple starts a fresh record (and may be dispatched to a new VM).
    """

    #: Buckets per idle-timeout window; coarser buckets mean fewer moves,
    #: finer buckets mean tighter expiry scans. 8 keeps both trivial.
    _BUCKETS_PER_TIMEOUT = 8

    def __init__(self, idle_timeout: float = 60.0) -> None:
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive: {idle_timeout!r}")
        self.idle_timeout = idle_timeout
        self._flows: Dict[FlowKey, FlowRecord] = {}
        self._by_vm: Dict[int, Dict[FlowKey, FlowRecord]] = {}
        self._buckets: Dict[int, Dict[FlowKey, FlowRecord]] = {}
        self._granularity = max(idle_timeout / self._BUCKETS_PER_TIMEOUT, 1e-9)
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._flows

    # ------------------------------------------------------------------ #
    # Index maintenance
    # ------------------------------------------------------------------ #

    def _rebind_vm(
        self, record: FlowRecord, old: Optional[int], new: Optional[int]
    ) -> None:
        if old is not None:
            flows = self._by_vm.get(old)
            if flows is not None:
                flows.pop(record.key, None)
                if not flows:
                    del self._by_vm[old]
        if new is not None:
            self._by_vm.setdefault(new, {})[record.key] = record

    def _place_in_bucket(self, record: FlowRecord, now: float) -> None:
        bucket = int(now / self._granularity)
        if bucket != record._bucket:
            if record._bucket is not None:
                old_bucket = self._buckets.get(record._bucket)
                if old_bucket is not None:
                    old_bucket.pop(record.key, None)
                    if not old_bucket:
                        del self._buckets[record._bucket]
            self._buckets.setdefault(bucket, {})[record.key] = record
            record._bucket = bucket

    def _remove(self, record: FlowRecord) -> None:
        del self._flows[record.key]
        if record._bucket is not None:
            bucket = self._buckets.get(record._bucket)
            if bucket is not None:
                bucket.pop(record.key, None)
                if not bucket:
                    del self._buckets[record._bucket]
        if record._vm_id is not None:
            flows = self._by_vm.get(record._vm_id)
            if flows is not None:
                flows.pop(record.key, None)
                if not flows:
                    del self._by_vm[record._vm_id]
        # Detach so later vm_id writes on the dead record cannot touch
        # the table's indexes.
        record._table = None
        record._bucket = None

    # ------------------------------------------------------------------ #
    # Per-packet operations
    # ------------------------------------------------------------------ #

    def lookup(self, packet: Packet, now: float) -> Optional[FlowRecord]:
        """The live record for this packet's flow, or None.

        A record past its idle timeout is treated as absent (and removed),
        so callers never observe stale flows regardless of sweep timing.
        """
        return self.live_record(FlowKey.from_packet(packet), now)

    def observe(self, packet: Packet, now: float) -> Tuple[FlowRecord, bool]:
        """Account ``packet``; returns ``(record, is_new_flow)``."""
        return self.observe_keyed(FlowKey.from_packet(packet), packet, now)

    def observe_keyed(
        self, key: FlowKey, packet: Packet, now: float
    ) -> Tuple[FlowRecord, bool]:
        """The body of :meth:`observe`, taking the packet's canonical key.

        Its own method only because ``benchmarks/e2e/layers.py`` wraps
        this name to count and time flow-table observations.
        """
        record = self.live_record(key, now)
        created = record is None
        if created:
            record = self.create(key, packet.src, now)
        record.touch(packet, now)
        return record, created

    def live_record(self, key: FlowKey, now: float) -> Optional[FlowRecord]:
        """The record under ``key`` if it is still live at ``now``.

        The table's one lazy-expiry rule: a record silent for strictly
        more than ``idle_timeout`` is removed, counted in
        ``expired_total`` and reported absent. The record is not touched.
        """
        record = self._flows.get(key)
        if record is not None and now - record.last_seen > self.idle_timeout:
            self._remove(record)
            self.expired_total += 1
            return None
        return record

    def create(self, key: FlowKey, initiator: IPAddress, now: float) -> FlowRecord:
        """Register a brand-new flow record (no packet accounted yet).

        The record is indexed and bucketed at ``now`` but carries zero
        packets/bytes: :meth:`observe_keyed` touches it next, the span
        lane applies its own per-packet arithmetic. Built field-by-field
        and bucketed inline, because this runs once per unique flow of a
        replay, where constructor and method-call overhead dominates.
        """
        record = FlowRecord.__new__(FlowRecord)
        record.key = key
        record.first_seen = now
        record.last_seen = now
        record.initiator = initiator
        record.packets = 0
        record.bytes = 0
        record._vm_id = None
        record._table = self
        bucket = int(now / self._granularity)
        record._bucket = bucket
        slot = self._buckets.get(bucket)
        if slot is None:
            slot = self._buckets[bucket] = {}
        slot[key] = record
        self._flows[key] = record
        return record

    # ------------------------------------------------------------------ #
    # Sweeps and reclamation
    # ------------------------------------------------------------------ #

    def discard(self, record: FlowRecord) -> None:
        """Forget ``record`` if it is live in this table (no-op otherwise).

        Used by the gateway to unwind a record created for a packet that
        was then refused (e.g. pending-queue overflow) — the flow never
        reached a VM, so it must not linger in the table.
        """
        if record._table is self:
            self._remove(record)

    def expire_idle(self, now: float) -> List[FlowRecord]:
        """Remove and return every flow idle past the timeout.

        Incremental: only buckets whose entire time range is old enough to
        contain expired flows are visited, so a sweep's cost tracks the
        number of *expirable* flows, not the number of live ones.
        """
        threshold = now - self.idle_timeout
        boundary = int(threshold / self._granularity)
        expired: List[FlowRecord] = []
        for index in sorted(b for b in self._buckets if b <= boundary):
            for record in list(self._buckets[index].values()):
                if now - record.last_seen > self.idle_timeout:
                    self._remove(record)
                    expired.append(record)
                else:
                    # Touched since it was filed: refile it under its
                    # true last_seen (the module docstring's one policy).
                    self._place_in_bucket(record, record.last_seen)
        self.expired_total += len(expired)
        return expired

    def flows_for_vm(self, vm_id: int) -> List[FlowRecord]:
        """All live flows currently bound to ``vm_id`` (used when a VM is
        reclaimed, to drop its residual flow state)."""
        return list(self._by_vm.get(vm_id, {}).values())

    def drop_vm(self, vm_id: int) -> int:
        """Forget all flows bound to a reclaimed VM; returns count dropped."""
        doomed = self.flows_for_vm(vm_id)
        for record in doomed:
            self._remove(record)
        return len(doomed)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(list(self._flows.values()))
