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
``EmulatedSession.flow_state``, ``flow_key``,
``FlowTable.live_record`` / ``create``, ``triggers.vuln_probe``,
``emulator_replies``, ``containment.honeypot_initiated`` — and caches the
answer: the flow's row in the flow table and the packet class's reply
shape. Per packet, :meth:`SpanLane.run` applies the cached answer as
plain arithmetic on the flow table's columns and the session's handoff
buffer (what ``FlowTable.observe_keyed``, ``EmulatedSession.emulate`` and
``FidelityLadder._buffer`` do per packet), and
``tests/test_span_lane_parity.py`` holds it to the per-event loop,
observable by observable.

Addresses stay the arrival key's 32-bit values throughout: inventory
membership, the ladder's sessions, the flow key and the containment rule
all take values, so a resolve builds no
:class:`~repro.net.addr.IPAddress`. It builds one only to ask
``IPAddress``-keyed state: a federation's ``is_remote``, and ``vm_map``
when any VM is bound.

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
  flow rows are checked for liveness on every touch (the row's serial
  is still the one the entry holds, and the flow is not idle), and an
  entry that fails either check is resolved again exactly as a first
  packet would be, so traffic to any other address leaves it valid.
  All three checks are one-way — a generation only rises, a freed row's
  serial never comes back, an idle flow is expired before anything
  touches it again — so an entry that fails one is dead for good, and
  :meth:`SpanLane.shed` drops such entries once they outnumber the live
  ones: the rule that keeps the cache right also keeps it the size of
  what it caches. When the flow table empties it releases its columns,
  and with them every row an entry could name: the lane then forgets
  its whole cache before reading a column again. What an entry assumes
  about the *farm* (its policy and ladder) is the lane object's own
  validity: :meth:`SpanLane.serves`;
* rows touched here keep their creation-time bucket, as they do on the
  per-packet lane: ``FlowTable.expire_idle`` refiles them (see
  :mod:`repro.net.flow`).
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
from repro.net.flow import flow_key
from repro.net.packet import PROTO_ICMP, Packet
from repro.services.guest import BANNER_PREFIX
from repro.services.personality import Personality

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.gateway import Gateway
    from repro.fidelity.ladder import FidelityLadder
    from repro.sim.batch import ArrivalKey, PacketColumns

__all__ = ["SpanLane"]

#: Reply shapes of a class of empty-payload packets. A class is
#: ``(kind, reply_size, banner, contained)``: the fixed reply size
#: (_FIXED, _UNREACHABLE), the banner payload if any, and whether the
#: reply faces (and loses to) drop-all.
_ABSORB = 0       # silently absorbed, no reply
_FIXED = 1        # one fixed-size same-protocol reply (SYN/RST ack, banner)
_ECHO = 2         # ICMP echo reply mirroring the request size
_UNREACHABLE = 3  # ICMP port-unreachable on its own flow, contained
#: The class takes the per-packet lane: it promotes, draws several
#: replies, or needs a containment verdict the lane does not model.
_SLOW = (-1, 0, None, False)


class SpanLane:
    """The span cache and what it was resolved under: one gateway, one
    ladder and one containment policy.

    A cache entry is a tuple ``(cls, row, serial, session, cache_gen)``:
    the packet class, the conversation's flow row and the serial it was
    stamped with, the emulated session and the generation it was
    resolved under. An ``_UNREACHABLE`` entry carries the unreachable's
    own flow row and serial after them."""

    def __init__(self, gateway: "Gateway", ladder: "FidelityLadder") -> None:
        self.gateway = gateway
        self.ladder = ladder
        self.policy = gateway.policy
        # The one verdict the lane models as a counter: exact drop-all,
        # which is stateless and contains whatever it is asked about.
        self.drop_all = type(self.policy) is DropAllPolicy
        #: Resolved flows by arrival 5-tuple (validity: module docstring).
        self.cache: Dict["ArrivalKey", Tuple] = {}
        self.classes: Dict[Tuple[int, int, int, int], Tuple] = {}
        self.ports: Dict[int, frozenset] = {}
        #: The flow table's release count the cached rows belong to.
        self.releases = gateway.flows.releases

    def serves(self, ladder: "FidelityLadder", policy: ContainmentPolicy) -> bool:
        """Whether everything cached here still describes the farm:
        ``gateway.policy`` and ``gateway.ladder`` are public and may be
        replaced mid-run."""
        return policy is self.policy and ladder is self.ladder

    def _follow_releases(self) -> None:
        """Forget every entry if the flow table has released its columns
        (it emptied) since they were resolved: their rows are gone."""
        releases = self.gateway.flows.releases
        if releases != self.releases:
            self.cache.clear()
            self.releases = releases

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
        self._follow_releases()
        ladder = self.ladder
        flows = self.gateway.flows
        times = columns.times
        keys = columns.keys
        payloads = columns.payloads
        sizes = columns.sizes
        cache = self.cache
        cache_get = cache.get
        resolve = self._resolve
        serials = flows.serial
        last_seen = flows.last_seen
        packets = flows.packets
        nbytes = flows.bytes
        idle_timeout = flows.idle_timeout
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
                cls = entry[0]
                row = entry[1]
                session = entry[3]
                if (  # the validity rule; shed() drops what fails it
                    session.cache_gen != entry[4]
                    or serials[row] != entry[2]
                    or t - last_seen[row] > idle_timeout
                    or (
                        cls[0] == _UNREACHABLE
                        and (
                            serials[entry[5]] != entry[6]
                            or t - last_seen[entry[5]] > idle_timeout
                        )
                    )
                ):
                    n_reresolves += 1
                    entry = None
            if entry is None:
                n_resolves += 1
                entry = resolve(columns, i, key, t)
                if flows.releases != self.releases:
                    self._follow_releases()  # a lazy expiry emptied the table
                if entry is None:
                    break
                cache[key] = entry
                cls = entry[0]
                row = entry[1]
                session = entry[3]
            kind = cls[0]
            size = sizes[i]
            last_seen[row] = t
            session.last_seen = t
            session.packets_absorbed += 1
            if session.columns is not columns:
                session.index_into(columns)
            buffered = session.buffered
            if len(buffered) >= buffer_limit:
                session.evict_oldest()
                n_buffer_dropped += 1
            buffered.append(i)  # a row index, not an object
            if kind == _FIXED:
                packets[row] += 2
                nbytes[row] += size + cls[1]
                banner = cls[2]
                if banner is not None:
                    session.banner = banner
                n_replies += 1
                if cls[3]:
                    n_contained += 1
            elif kind == _ABSORB:
                packets[row] += 1
                nbytes[row] += size
            elif kind == _UNREACHABLE:
                packets[row] += 1
                nbytes[row] += size
                icmp_row = entry[5]
                last_seen[icmp_row] = t
                packets[icmp_row] += 1
                nbytes[icmp_row] += cls[1]
                n_replies += 1
                n_contained += 1
            else:  # _ECHO
                packets[row] += 2
                nbytes[row] += size + size
                n_replies += 1
                if cls[3]:
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
        table expired its idle flows, so a row whose serial still matches
        is a live one and the rule's idle clause has nothing left to
        catch.

        Every valid entry holds a distinct live flow row, so a cache
        over twice the flow table's size is more than half dead: a
        rebuild frees more than it keeps, the work is amortised O(1) per
        entry ever inserted, a run in which nothing expires never
        rebuilds, and an empty flow table leaves an empty cache.
        Dropping a dead entry changes nothing simulated — its next packet
        resolves afresh either way — and lets go of its session and that
        session's handoff buffer."""
        self._follow_releases()
        cache = self.cache
        flows = self.gateway.flows
        if len(cache) <= 2 * len(flows):
            return
        serials = flows.serial
        self.cache = {
            key: entry
            for key, entry in cache.items()
            if entry[3].cache_gen == entry[4] and serials[entry[1]] == entry[2]
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
        """Class ``(kind, reply_size, banner, False)`` of every
        empty-payload packet sharing ``packet``'s ``(personality,
        protocol, dst_port, tcp_flags)``: the emulator's reply (and a
        vuln probe's verdict) depends only on those fields once the
        payload is empty, and on the port only where :meth:`_port_set`
        says so. Whether a reply is contained depends on the flow, and
        :meth:`_resolve` decides it."""
        if vuln_probe(self.ladder.registry.catalog, personality, packet):
            return _SLOW
        replies = emulator_replies(personality, packet)
        if not replies:
            return (_ABSORB, 0, None, False)
        if len(replies) != 1:
            return _SLOW
        reply = replies[0]
        if reply.protocol != packet.protocol:
            # Protocol-changing reply (ICMP unreachable): it opens its own
            # flow and faces the containment policy.
            if not self.drop_all or reply.protocol != PROTO_ICMP:
                return _SLOW
            return (_UNREACHABLE, reply.size, None, True)
        if packet.protocol == PROTO_ICMP:
            return (_ECHO, 0, None, False)
        payload = reply.payload
        banner = (
            payload[len(BANNER_PREFIX):] if payload.startswith(BANNER_PREFIX) else None
        )
        return (_FIXED, reply.size, banner, False)

    # ------------------------------------------------------------------ #
    # Per flow: resolve through the per-packet lane's primitives
    # ------------------------------------------------------------------ #

    def _resolve(
        self, columns: "PacketColumns", i: int, key: "ArrivalKey", t: float
    ) -> Optional[Tuple]:
        """Build (or rebuild) the cache entry for arrival ``key``, or
        return None to send the packet down the per-packet lane. The
        caller owns the cache store; re-resolving is idempotent.

        Ordering is load-bearing. The checks that keep a packet away from
        the ladder altogether come first, before anything is touched.
        After them the per-packet lane would, at this same timestamp,
        open the very session and flow state opened here and expire the
        very flows ``live_record`` expires, so a later bail-out leaves
        it exactly the state it expects; the session and flow counters
        are bumped once, here. Flow rows are created last, after the
        final bail-out, so the per-packet lane's ``created`` flag (its
        overflow rollback) is the per-event one."""
        gateway = self.gateway
        src, src_port, dst, dst_port, protocol = key
        covers = gateway.inventory.covers
        if not covers(dst) or covers(src):
            return None  # stray, or an internal source whose reply re-enters
        port = gateway.intershard
        if port is not None and port.is_remote(IPAddress(src)):
            # A sibling shard's address probing this darknet: its replies
            # must ride the federation message layer, never the span
            # lane's counter-only absorption.
            return None
        vm_map = gateway.vm_map
        if vm_map and IPAddress(dst) in vm_map:
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
        sampled = cls is None
        if sampled:
            # The sample stays cached for the per-packet lane in case
            # this packet goes there.
            cls = self.classes[class_key] = self._classify(
                columns.packet_at(i), personality
            )
        kind = cls[0]
        if kind < 0:
            return None
        flow = flow_key(src, src_port, dst, dst_port, protocol)
        state, flow_created = session.flow_state(flow)
        if flow_created:
            ladder._c_flows_seen.increment()
        if (
            state.payload_bytes >= PROMOTE_PAYLOAD_BYTES
            or state.exchanges >= PROMOTE_STATE_DEPTH
        ):
            return None  # this packet promotes

        flows = gateway.flows
        row = flows.live_record(flow, t)
        if (
            row is not None
            and (kind == _FIXED or kind == _ECHO)
            and honeypot_initiated(flows.initiator[row], False, dst)
        ):
            # The reply rides a flow the farm side opened, so it faces the
            # policy, and only drop-all's answer is known here.
            if not self.drop_all:
                return None
            cls = (kind, cls[1], cls[2], True)
        if kind == _UNREACHABLE:
            # The unreachable's flow: same endpoints, ICMP. Same canonical
            # ordering as the inbound key (identical endpoint pairs).
            icmp_key = flow[:4] + (PROTO_ICMP,)
            icmp_row = flows.live_record(icmp_key, t)
            if icmp_row is not None and not honeypot_initiated(
                flows.initiator[icmp_row], False, dst
            ):
                return None  # externally-initiated ICMP flow: reply routes out
        if sampled:
            # The span lane consumes this row: the sample _classify read
            # is nobody's to deliver.
            del columns.packets[i]
        if row is None:
            row = flows.create(flow, src, t)
        serial = flows.serial
        if kind != _UNREACHABLE:
            return (cls, row, serial[row], session, session.cache_gen)
        if icmp_row is None:
            icmp_row = flows.create(icmp_key, dst, t)
        return (
            cls, row, serial[row], session, session.cache_gen,
            icmp_row, serial[icmp_row],
        )
