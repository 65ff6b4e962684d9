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
asks the primitives the per-packet lane runs — ``FidelityLadder.session_row``,
``AddressTable.flow_state``, ``FlowTable.live_record`` / ``create``,
``triggers.vuln_probe``, ``emulator_replies``,
``containment.honeypot_initiated`` — and writes the answer on the flow's
row, as the ``verdict`` column: the reply class and the ``tcp_flags`` it
was classified under (a code into the lane's small table of classes),
and the stamp of the session it was resolved against. The flow table is
the lane's only per-flow index. Per packet, :meth:`SpanLane.run` finds
the row, checks the verdict, and applies it as plain arithmetic on the
flow table's columns and the destination's row of the gateway's address
table, its handoff chain included (what ``FlowTable.observe_keyed`` and
``EmulatedSession.emulate`` do per packet), and
``tests/test_span_lane_parity.py`` holds it to the per-event loop,
observable by observable.

Addresses are the arrival key's ints, as everywhere in the farm, so a
resolve builds no address object. Nor does it build a key: ``flow_key``
orders endpoints high first, so an arrival from a source above the
darknet (96.1 % of ``radiation_span``'s) is its flow's key, and the row
files the trace's own tuple. Only a source below the darknet costs a
key tuple, built by ``flow_key`` to find the flow's row.

Correctness rests on three invariants:

* nothing here schedules events or reads ``sim.now``, so the caller's
  span bound (next heap event) stays valid throughout;
* a packet is served from its row's verdict exactly when all of these
  hold, and anything else resolves exactly as a first packet would:

  - the flow index finds the row (a freed row leaves the index, and a
    new row starts with no verdict);
  - the destination's row of the address table bears the verdict's
    stamp. A verdict depends only on state of its *destination
    address*: that no VM is bound there, and which session the row
    holds for it (every flow of a live session is below the promotion
    thresholds: the packet that reaches one promotes, which ends the
    session). A row with no session has stamp 0, which no verdict
    carries: a promotion writes it, and so does a VM bound to a cold
    address; a VM bound over a live session (a respawn) draws the
    session a new stamp. A freed row takes its stamp with it. Stamps are
    unique in the process, so none ever comes back;
  - the flow is not idle;
  - the packet's ``tcp_flags`` are the verdict's: a flow's later packets
    may carry other flags, and another class;
  - an unreachable's ICMP companion row is live under its key and was
    opened by the farm side.

  Traffic to any other address leaves a verdict valid. What a verdict
  assumes about the *farm* (its policy and ladder) is the lane object's
  own validity, :meth:`SpanLane.serves`, and a new lane restamps the
  ladder's sessions, so it trusts no verdict an earlier lane wrote.
  A verdict is a column of its row: it goes when the flow does, and a
  drained table holds none;
* rows touched here, flow and address rows alike, keep their
  creation-time bucket, as they do on the per-packet lane:
  ``RowTable.expire_idle`` refiles them (see :mod:`repro.sim.rows`).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.containment import ContainmentPolicy, DropAllPolicy, honeypot_initiated
from repro.fidelity.emulator import EMULATED, MAX_HANDOFF_PACKETS, emulator_replies
from repro.fidelity.triggers import (
    PROMOTE_PAYLOAD_BYTES,
    PROMOTE_STATE_DEPTH,
    vuln_probe,
)
from repro.net.flow import FiveTuple, flow_key
from repro.net.packet import PROTO_ICMP, Packet
from repro.services.guest import BANNER_PREFIX
from repro.services.personality import Personality

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.gateway import Gateway
    from repro.fidelity.ladder import FidelityLadder
    from repro.sim.batch import PacketColumns

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

#: A row's verdict is ``stamp << _CODE_BITS | code``: the session stamp
#: it was resolved against, and its index into :attr:`SpanLane.verdicts`.
#: XOR with the live session's shifted stamp leaves a code below
#: ``_CODES`` exactly when the stamps agree.
_CODE_BITS = 20
_CODES = 1 << _CODE_BITS


class SpanLane:
    """The span lane and what it resolves under: one gateway, one ladder
    and one containment policy.

    ``verdicts`` lists the reply classes flows have been resolved to,
    each with the ``tcp_flags`` it was classified under: ``(kind,
    reply_size, banner, contained, tcp_flags)``. A row's verdict code is
    an index into it (``codes`` is the reverse map)."""

    def __init__(self, gateway: "Gateway", ladder: "FidelityLadder") -> None:
        self.gateway = gateway
        self.ladder = ladder
        self.policy = gateway.policy
        # The one verdict the lane models as a counter: exact drop-all,
        # which is stateless and contains whatever it is asked about.
        self.drop_all = type(self.policy) is DropAllPolicy
        #: Class key -> code of its verdict (see :meth:`_resolve`).
        self.classes: Dict[Tuple[int, int, int, int], int] = {}
        self.ports: Dict[int, frozenset] = {}
        self.verdicts: List[Tuple] = []
        self.codes: Dict[Tuple, int] = {}
        ladder.sessions.restamp()

    def serves(self, ladder: "FidelityLadder", policy: ContainmentPolicy) -> bool:
        """Whether the verdicts written here still describe the farm:
        ``gateway.policy`` and ``gateway.ladder`` are public and may be
        replaced mid-run."""
        return policy is self.policy and ladder is self.ladder

    # ------------------------------------------------------------------ #
    # Per packet: apply the row's verdict
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
        flows = self.gateway.flows
        addresses = ladder.sessions
        times = columns.times
        keys = columns.keys
        payloads = columns.payloads
        sizes = columns.sizes
        tcp_flags = columns.tcp_flags
        prev = columns.prev
        if prev is None:
            prev = columns.prev = array("q", bytes(8 * len(times)))
        index_get = flows.index.get
        address_get = addresses.index.get
        verdicts = self.verdicts
        resolve = self._resolve
        row_verdicts = flows.verdict
        initiator = flows.initiator
        last_seen = flows.last_seen
        packets = flows.packets
        nbytes = flows.bytes
        idle_timeout = flows.idle_timeout
        stamps = addresses.stamp
        address_seen = addresses.last_seen
        absorbed = addresses.absorbed
        heads = addresses.head
        chained = addresses.chained
        banners = addresses.banner
        holding = addresses.holding
        buffer_limit = MAX_HANDOFF_PACKETS
        n_replies = n_contained = n_buffer_dropped = 0
        n_resolves = n_reresolves = 0

        i = start
        while i < limit:
            if payloads[i]:
                break  # payload advances flow state / may promote: slow path
            key = keys[i]
            src, src_port, dst, dst_port, protocol = key
            t = times[i]
            # flow_key's order: from above the darknet, the arrival is the key.
            flow = key if src > dst else flow_key(src, src_port, dst, dst_port, protocol)
            row = index_get(flow)
            verdict = None
            stamped = 0 if row is None else row_verdicts[row]
            if stamped:
                address = address_get(dst)
                if address is not None:  # the validity rule: module docstring
                    code = stamped ^ (stamps[address] << _CODE_BITS)
                    if code < _CODES and t - last_seen[row] <= idle_timeout:
                        verdict = verdicts[code]
                        if verdict[4] != tcp_flags[i]:
                            verdict = None
                        elif verdict[0] == _UNREACHABLE:
                            icmp_row = index_get(flow[:4] + (PROTO_ICMP,))
                            if (
                                icmp_row is None
                                or t - last_seen[icmp_row] > idle_timeout
                                or initiator[icmp_row] != dst
                            ):
                                verdict = None
                if verdict is None:
                    n_reresolves += 1
            if verdict is None:
                n_resolves += 1
                resolved = resolve(columns, i, flow, row, t)
                if resolved is None:
                    break
                verdict, row, address, icmp_row = resolved
            kind = verdict[0]
            size = sizes[i]
            last_seen[row] = t
            address_seen[address] = t
            # Chain the arrival for the handoff (AddressTable.chain), here
            # while nothing can leave the chain but a row index.
            n = absorbed[address]
            if chained[address] is not columns or (
                holding and n >= buffer_limit and address in holding
            ):
                addresses.chain(address, columns, i)
            else:
                absorbed[address] = n + 1
                prev[i] = heads[address]
                heads[address] = i
            if n >= buffer_limit:
                n_buffer_dropped += 1
            if kind == _FIXED:
                packets[row] += 2
                nbytes[row] += size + verdict[1]
                banner = verdict[2]
                if banner is not None:
                    banners[address] = banner
                n_replies += 1
                if verdict[3]:
                    n_contained += 1
            elif kind == _ABSORB:
                packets[row] += 1
                nbytes[row] += size
            elif kind == _UNREACHABLE:
                packets[row] += 1
                nbytes[row] += size
                last_seen[icmp_row] = t
                packets[icmp_row] += 1
                nbytes[icmp_row] += verdict[1]
                n_replies += 1
                n_contained += 1
            else:  # _ECHO
                packets[row] += 2
                nbytes[row] += size + size
                n_replies += 1
                if verdict[3]:
                    n_contained += 1
            i += 1

        gateway = self.gateway
        gateway.span_resolves += n_resolves
        gateway.span_reresolves += n_reresolves
        if n_buffer_dropped:
            ladder._c_buffer_dropped.increment(n_buffer_dropped)
        return i - start, n_replies, n_contained

    # ------------------------------------------------------------------ #
    # Per class: what the emulator answers
    # ------------------------------------------------------------------ #

    def _code(self, verdict: Tuple) -> Optional[int]:
        """The code naming ``verdict`` in :attr:`verdicts`, or None when
        every code is taken (the packet then takes the per-packet lane)."""
        code = self.codes.get(verdict)
        if code is None and len(self.verdicts) < _CODES:
            code = self.codes[verdict] = len(self.verdicts)
            self.verdicts.append(verdict)
        return code

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
        self, columns: "PacketColumns", i: int, flow: FiveTuple,
        row: Optional[int], t: float,
    ) -> Optional[Tuple[Tuple, int, int, Optional[int]]]:
        """Resolve arrival ``i`` of flow ``flow``, which the flow index
        files under ``row`` (None: no row), and write its verdict on the
        row; return ``(verdict, row, address, icmp_row)`` (the
        destination's row of the gateway's address table, and the
        unreachable's ICMP row, else None), or None to send the packet
        down the per-packet lane. Re-resolving is idempotent.

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
        src, src_port, dst, dst_port, protocol = columns.keys[i]
        covers = gateway.inventory.covers
        if not covers(dst) or covers(src):
            return None  # stray, or an internal source whose reply re-enters
        port = gateway.intershard
        if port is not None and port.remote_shard(src) is not None:
            # A sibling shard's address probing this darknet: its replies
            # must ride the federation message layer, never the span
            # lane's counter-only absorption.
            return None
        ladder = self.ladder
        addresses = ladder.sessions
        address = addresses.index.get(dst)
        if address is None:
            address = ladder.session_row(dst, t)
        elif addresses.state[address] != EMULATED:
            return None  # VM-backed address: clone/deliver path
        personality = addresses.personality_of(address)
        pid = id(personality)
        ports = self.ports.get(pid)
        if ports is None:
            ports = self.ports[pid] = self._port_set(personality)
        flags = columns.tcp_flags[i]
        class_key = (
            pid,
            protocol,
            dst_port if (protocol, dst_port) in ports else 0,
            flags,
        )
        code = self.classes.get(class_key)
        if code is None:
            # A throwaway sample: if the row leaves the span lane, the
            # per-packet lane builds the packet it delivers.
            code = self._code(
                self._classify(columns.packet_at(i), personality) + (flags,)
            )
            if code is None:
                return None
            self.classes[class_key] = code
        verdict = self.verdicts[code]
        kind = verdict[0]
        if kind < 0:
            return None
        state, flow_created = addresses.flow_state(address, flow)
        if flow_created:
            ladder._c_flows_seen.increment()
        if (
            state.payload_bytes >= PROMOTE_PAYLOAD_BYTES
            or state.exchanges >= PROMOTE_STATE_DEPTH
        ):
            return None  # this packet promotes

        flows = gateway.flows
        if row is not None:
            row = flows.live_record(flow, t)  # the lazy-expiry rule
        if (
            row is not None
            and (kind == _FIXED or kind == _ECHO)
            and honeypot_initiated(flows.initiator[row], False, dst)
        ):
            # The reply rides a flow the farm side opened, so it faces the
            # policy, and only drop-all's answer is known here.
            if not self.drop_all:
                return None
            code = self._code(verdict[:3] + (True, flags))
            if code is None:
                return None
            verdict = self.verdicts[code]
        icmp_row = None
        if kind == _UNREACHABLE:
            # The unreachable's flow: same endpoints, ICMP. Same canonical
            # ordering as the inbound key (identical endpoint pairs).
            icmp_key = flow[:4] + (PROTO_ICMP,)
            icmp_row = flows.live_record(icmp_key, t)
            if icmp_row is not None and not honeypot_initiated(
                flows.initiator[icmp_row], False, dst
            ):
                return None  # externally-initiated ICMP flow: reply routes out
        if row is None:
            row = flows.create(flow, src, t)
        flows.verdict[row] = addresses.stamp[address] << _CODE_BITS | code
        if kind == _UNREACHABLE and icmp_row is None:
            icmp_row = flows.create(icmp_key, dst, t)
        return verdict, row, address, icmp_row
