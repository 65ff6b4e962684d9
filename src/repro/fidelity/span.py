"""The span lane: the emulator tier's bulk path.

The batched replay offers the gateway whole multi-timestamp runs of
arrivals as columns (see :mod:`repro.sim.batch`).
:meth:`Gateway.dispatch_span <repro.core.gateway.Gateway.dispatch_span>`
checks the disqualifiers it owns and hands the run to :class:`SpanLane`,
which consumes the longest prefix that is provably equivalent to
per-event dispatch without materializing packets.

The lane handles exactly the storm-dominant case: an emulator-tier
packet with an **empty payload** addressed to a cold covered address
from an external source, whose reply classification is constant per
``(personality, protocol, dst_port, tcp_flags)``. Anything else stops
the span, and the per-packet lane takes it from there.

The lane decides nothing of its own. Once per flow, :meth:`SpanLane._resolve`
asks the primitives the per-packet lane runs — ``FidelityLadder.session_at``,
``EmulatedSession.flow_state``, ``FlowKey.between``,
``FlowTable.live_record`` / ``create``, ``triggers.vuln_probe``,
``emulator_replies``, ``containment.honeypot_initiated`` — and caches the
answer; per packet, :meth:`SpanLane.run` applies the cached answer with
plain arithmetic. That apply loop is the one deliberate restatement (of
``FlowRecord.touch``, ``EmulatedSession.emulate`` and
``FidelityLadder._buffer``), and ``tests/test_span_lane_parity.py`` holds
it to the per-event loop, observable by observable.

Correctness rests on three invariants:

* nothing here schedules events or reads ``sim.now``, so the caller's
  span bound (next heap event) stays valid throughout;
* a cache entry depends only on state of its *destination address*: that
  no VM is bound there, and which ``EmulatedSession`` the ladder holds
  for it (every flow of a live session is below the promotion thresholds:
  the packet that reaches one promotes, which drops the session). Each of
  those changes bumps that session's ``cache_gen`` in the one place it
  happens (``FidelityLadder._retire``, which ``_promote`` and ``sweep``
  drop sessions through, and ``FidelityLadder.vm_bound``), the entry's
  flow record is checked for liveness on every touch, and an entry that
  fails either check is resolved again exactly as a first packet would
  be, so traffic to any other address leaves it valid. All three
  checks are one-way — a generation only rises, a detached record is
  never re-attached, an idle record is expired before anything touches
  it again — so an entry that fails one is dead for good, and
  :meth:`SpanLane.shed` drops such entries once they outnumber the live
  ones: the rule that keeps the cache right also keeps it the size of
  what it caches. What an entry assumes about the *farm* (its policy and
  ladder) is the lane object's own validity: :meth:`SpanLane.serves`;
* flow records touched here keep their creation-time bucket, as they
  do on the per-packet lane: ``FlowTable.expire_idle`` refiles them
  (see :mod:`repro.net.flow`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.containment import ContainmentPolicy, DropAllPolicy, honeypot_initiated
from repro.fidelity.emulator import emulator_replies
from repro.fidelity.triggers import (
    PROMOTE_PAYLOAD_BYTES,
    PROMOTE_STATE_DEPTH,
    vuln_probe,
)
from repro.net.addr import IPAddress
from repro.net.flow import FlowKey
from repro.net.packet import PROTO_ICMP, Packet
from repro.services.guest import BANNER_PREFIX
from repro.services.personality import Personality

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.gateway import Gateway
    from repro.fidelity.ladder import FidelityLadder
    from repro.sim.batch import PacketColumns

__all__ = ["SpanLane"]

#: Reply shapes of a class of empty-payload packets.
_ABSORB = 0       # silently absorbed, no reply
_FIXED = 1        # one fixed-size same-protocol reply (SYN/RST ack, banner)
_ECHO = 2         # ICMP echo reply mirroring the request size
_UNREACHABLE = 3  # ICMP port-unreachable on its own flow, contained
#: The class takes the per-packet lane: it promotes, draws several
#: replies, or needs a containment verdict the lane does not model.
_SLOW = (-1, 0, None)


class SpanLane:
    """The span cache and what it was resolved under: one gateway, one
    ladder and one containment policy."""

    def __init__(self, gateway: "Gateway", ladder: "FidelityLadder") -> None:
        self.gateway = gateway
        self.ladder = ladder
        self.policy = gateway.policy
        # The one verdict the lane models as a counter: exact drop-all,
        # which is stateless and contains whatever it is asked about.
        self.drop_all = type(self.policy) is DropAllPolicy
        #: Resolved flows by arrival 5-tuple (validity: module docstring).
        self.cache: Dict[Tuple[str, int, str, int, int], list] = {}
        self.classes: Dict[Tuple[int, int, int, int], Tuple] = {}
        self.ports: Dict[int, frozenset] = {}

    def serves(self, ladder: "FidelityLadder", policy: ContainmentPolicy) -> bool:
        """Whether everything cached here still describes the farm:
        ``gateway.policy`` and ``gateway.ladder`` are public and may be
        replaced mid-run."""
        return policy is self.policy and ladder is self.ladder

    # ------------------------------------------------------------------ #
    # Per packet: apply the cached answer
    # ------------------------------------------------------------------ #

    def run(
        self, columns: "PacketColumns", start: int, limit: int
    ) -> Tuple[int, int, int]:
        """Consume the longest equivalent prefix of ``columns[start:limit]``.
        Flow, session and buffer bookkeeping is applied here; the
        gateway's counters are the caller's to flush from the returned
        ``(consumed, replies, contained)``. Every reply not contained
        went out to the Internet."""
        ladder = self.ladder
        times = columns.times
        keys = columns.keys
        payloads = columns.payloads
        sizes = columns.sizes
        cache = self.cache
        cache_get = cache.get
        resolve = self._resolve
        idle_timeout = self.gateway.flows.idle_timeout
        buffer_limit = ladder.MAX_HANDOFF_PACKETS
        n_replies = n_contained = n_buffer_dropped = 0
        n_resolves = n_reresolves = 0

        i = start
        while i < limit:
            if payloads[i]:
                break  # payload advances flow state / may promote: slow path
            key = keys[i]
            t = times[i]
            entry = cache_get(key)
            if entry is not None:
                record = entry[1]
                session = entry[2]
                if (  # the validity rule; shed() drops what fails it
                    session.cache_gen != entry[3]
                    or record._table is None
                    or t - record.last_seen > idle_timeout
                ):
                    n_reresolves += 1
                    entry = None
            if entry is None:
                n_resolves += 1
                entry = resolve(columns, i, key, t)
                if entry is None:
                    break
                cache[key] = entry
                record = entry[1]
                session = entry[2]
            kind = entry[0]
            size = sizes[i]
            record.last_seen = t
            session.last_seen = t
            session.packets_absorbed += 1
            if session.columns is not columns:
                session.index_into(columns)
            buffered = session.buffered
            if len(buffered) >= buffer_limit:
                del buffered[0]
                session.buffer_dropped += 1
                n_buffer_dropped += 1
            buffered.append(i)  # a bare row index, not an object
            if kind == _FIXED:
                record.packets += 2
                record.bytes += size + entry[5]
                banner = entry[6]
                if banner is not None:
                    session.banner = banner
                n_replies += 1
                if entry[7]:
                    n_contained += 1
            elif kind == _ABSORB:
                record.packets += 1
                record.bytes += size
            elif kind == _UNREACHABLE:
                record.packets += 1
                record.bytes += size
                icmp_record = entry[4]
                icmp_record.last_seen = t
                icmp_record.packets += 1
                icmp_record.bytes += entry[5]
                n_replies += 1
                n_contained += 1
            else:  # _ECHO
                record.packets += 2
                record.bytes += size + size
                n_replies += 1
                if entry[7]:
                    n_contained += 1
            i += 1

        gateway = self.gateway
        gateway.span_resolves += n_resolves
        gateway.span_reresolves += n_reresolves
        if n_buffer_dropped:
            ladder._c_buffer_dropped.increment(n_buffer_dropped)
        return i - start, n_replies, n_contained

    def shed(self) -> None:
        """Drop the entries :meth:`run` would reject, once they outnumber
        the rest. The gateway's flow sweep calls this right after the
        table expired its idle records, so a record still attached is a
        live one and the rule's idle clause has nothing left to catch.

        Every valid entry holds a distinct live flow record, so a cache
        over twice the flow table's size is more than half dead: a
        rebuild frees more than it keeps, the work is amortised O(1) per
        entry ever inserted, a run in which nothing expires never
        rebuilds, and an empty flow table leaves an empty cache.
        Dropping a dead entry changes nothing simulated — its next packet
        resolves afresh either way — and lets go of the expired record,
        its session and that session's handoff buffer."""
        cache = self.cache
        if len(cache) <= 2 * len(self.gateway.flows):
            return
        self.cache = {
            key: entry
            for key, entry in cache.items()
            if entry[2].cache_gen == entry[3] and entry[1]._table is not None
        }

    # ------------------------------------------------------------------ #
    # Per class: what the emulator answers
    # ------------------------------------------------------------------ #

    def _port_set(self, personality: Personality) -> frozenset:
        """The ``(protocol, port)`` endpoints at which ``personality``'s
        answer to an empty-payload packet can depend on the port: its
        services and the vuln catalog's endpoints. Every other port is
        closed and catalog-free, and shares one class per protocol."""
        ports = {(svc.protocol, svc.port) for svc in personality.services}
        ports.update(self.ladder.registry.catalog.endpoints())
        return frozenset(ports)

    def _classify(self, packet: Packet, personality: Personality) -> Tuple:
        """Class descriptor ``(kind, reply_size, banner)`` for every
        empty-payload packet sharing ``packet``'s ``(personality,
        protocol, dst_port, tcp_flags)``: the emulator's reply (and a
        vuln probe's verdict) depends only on those fields once the
        payload is empty, and on the port only where :meth:`_port_set`
        says so."""
        if vuln_probe(self.ladder.registry.catalog, personality, packet):
            return _SLOW
        replies = emulator_replies(personality, packet)
        if not replies:
            return (_ABSORB, 0, None)
        if len(replies) != 1:
            return _SLOW
        reply = replies[0]
        if reply.protocol != packet.protocol:
            # Protocol-changing reply (ICMP unreachable): it opens its own
            # flow and faces the containment policy.
            if not self.drop_all or reply.protocol != PROTO_ICMP:
                return _SLOW
            return (_UNREACHABLE, reply.size, None)
        if packet.protocol == PROTO_ICMP:
            return (_ECHO, 0, None)
        payload = reply.payload
        banner = (
            payload[len(BANNER_PREFIX):] if payload.startswith(BANNER_PREFIX) else None
        )
        return (_FIXED, reply.size, banner)

    # ------------------------------------------------------------------ #
    # Per flow: resolve through the per-packet lane's primitives
    # ------------------------------------------------------------------ #

    def _resolve(
        self, columns: "PacketColumns", i: int, key, t: float
    ) -> Optional[list]:
        """Build (or rebuild) the cache entry for arrival ``key``, or
        return None to send the packet down the per-packet lane. The
        caller owns the cache store; re-resolving is idempotent.

        Ordering is load-bearing. The checks that keep a packet away from
        the ladder altogether come first, before anything is touched.
        After them the per-packet lane would, at this same timestamp,
        open the very session and flow state opened here and expire the
        very records ``live_record`` expires, so a later bail-out leaves
        it exactly the state it expects; the session and flow counters
        are bumped once, here. Flow records are created last, after the
        final bail-out, so the per-packet lane's ``created`` flag (its
        overflow rollback) is the per-event one."""
        gateway = self.gateway
        src_s, src_port, dst_s, dst_port, protocol = key
        addr_cache = columns.addr_cache
        dst = addr_cache.get(dst_s)
        src = addr_cache.get(src_s)
        try:
            if dst is None:
                dst = addr_cache[dst_s] = IPAddress.parse(dst_s)
            if src is None:
                src = addr_cache[src_s] = IPAddress.parse(src_s)
        except ValueError:
            return None  # malformed address: per-event parse raises properly
        covers = gateway.inventory.covers
        if not covers(dst) or covers(src):
            return None  # stray, or an internal source whose reply re-enters
        port = gateway.intershard
        if port is not None and port.is_remote(src):
            # A sibling shard's address probing this darknet: its replies
            # must ride the federation message layer, never the span
            # lane's counter-only absorption.
            return None
        vm_map = gateway.vm_map
        if vm_map and dst in vm_map:
            return None  # VM-backed address: clone/deliver path

        ladder = self.ladder
        session = ladder.session_at(dst, t)
        personality = session.personality
        pid = id(personality)
        ports = self.ports.get(pid)
        if ports is None:
            ports = self.ports[pid] = self._port_set(personality)
        class_key = (
            pid,
            protocol,
            dst_port if (protocol, dst_port) in ports else 0,
            columns.tcp_flags[i],
        )
        cls = self.classes.get(class_key)
        if cls is None:
            cls = self.classes[class_key] = self._classify(
                columns.packet_at(i), personality
            )
        kind = cls[0]
        if kind < 0:
            return None
        flow_key = FlowKey.between(src, src_port, dst, dst_port, protocol)
        state, flow_created = session.flow_state(flow_key)
        if flow_created:
            ladder._c_flows_seen.increment()
        if (
            state.payload_bytes >= PROMOTE_PAYLOAD_BYTES
            or state.exchanges >= PROMOTE_STATE_DEPTH
        ):
            return None  # this packet promotes

        flows = gateway.flows
        record = flows.live_record(flow_key, t)
        contained = False
        if (
            record is not None
            and (kind == _FIXED or kind == _ECHO)
            and honeypot_initiated(record, False, dst)
        ):
            # The reply rides a flow the farm side opened, so it faces the
            # policy, and only drop-all's answer is known here.
            if not self.drop_all:
                return None
            contained = True
        icmp_record = None
        if kind == _UNREACHABLE:
            # The unreachable's flow: same endpoints, ICMP. Same canonical
            # ordering as the inbound key (identical endpoint pairs).
            icmp_key = FlowKey(
                flow_key.addr_low, flow_key.port_low,
                flow_key.addr_high, flow_key.port_high, PROTO_ICMP,
            )
            icmp_record = flows.live_record(icmp_key, t)
            if icmp_record is not None and not honeypot_initiated(
                icmp_record, False, dst
            ):
                return None  # externally-initiated ICMP flow: reply routes out
        if record is None:
            record = flows.create(flow_key, src, t)
        if kind == _UNREACHABLE and icmp_record is None:
            icmp_record = flows.create(icmp_key, dst, t)
        return [
            kind,               # 0: per-class reply shape
            record,             # 1: the conversation's flow record
            session,            # 2: the emulated session
            session.cache_gen,  # 3: the session generation resolved under
            icmp_record,        # 4: the unreachable's flow record
            cls[1],             # 5: fixed reply size (_FIXED, _UNREACHABLE)
            cls[2],             # 6: banner payload, if any
            contained,          # 7: reply faces (and loses to) drop-all
        ]
