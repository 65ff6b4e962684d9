"""The protocol-emulator tier: guest-faithful replies without a VM.

The contract of this module is **byte parity with the guest**: for any
packet that does not trigger a promotion, :func:`emulator_replies` must
return exactly the packets a freshly cloned
:class:`~repro.services.guest.GuestHost` of the same personality would
return — same flags, same payloads, same sizes. That parity is what the
world-matrix equivalence oracle proves end to end, and it is why the
shared constants below are imported from the guest module rather than
re-declared (``tests/test_fidelity.py`` pins the parity packet-by-packet).

:class:`EmulatedSession` adds the per-address state the stateless reply
function does not need but the promotion engine does: per-flow exchange
depth and payload-byte accumulation, the negotiated banner, and the
bounded buffer of absorbed packets that becomes the handoff replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.flow import FlowKey
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    TcpFlags,
)
# Intentional private imports: the emulator's whole contract is parity
# with the guest's reply path, so the response-prefix check must be the
# guest's own, not a copy that can drift.
from repro.services.guest import ICMP_DEST_UNREACHABLE, _is_response_payload
from repro.services.personality import Personality

__all__ = ["EmulatedSession", "FlowState", "emulator_replies"]

_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_RST_ACK = TcpFlags.RST | TcpFlags.ACK
_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK

_BANNER_PREFIX = "banner:"


def emulator_replies(personality: Personality, packet: Packet) -> List[Packet]:
    """The synchronous replies a running guest of ``personality`` would
    send for ``packet`` — minus infection and memory side effects.

    Mirrors ``GuestHost._handle_icmp/_handle_tcp/_handle_udp`` exactly
    (the guest's ``_pending_followups`` branch is unreachable here:
    emulated addresses never initiate connections). Exploit packets that
    would actually infect the guest must be promoted *before* this is
    called; an exploit the personality is not vulnerable to bounces off
    with a banner, just as it does on a real guest.
    """
    if packet.is_icmp:
        if packet.icmp_type != ICMP_ECHO_REQUEST:
            return []
        return [packet.reply_template(size=packet.size)]
    if packet.is_tcp:
        service = personality.service_at(PROTO_TCP, packet.dst_port)
        if packet.flags.is_syn:
            handshake = packet.reply_template()
            handshake.flags = _RST_ACK if service is None else _SYN_ACK
            return [handshake]
        if service is None:
            return []  # mid-stream segment to a closed port: silently drop
        if _is_response_payload(packet.payload):
            return []  # responses never elicit responses (no reply loops)
        if packet.payload and service.banner:
            banner = packet.reply_template(payload=f"{_BANNER_PREFIX}{service.banner}")
            banner.flags = _PSH_ACK
            banner.size = 40 + len(service.banner)
            return [banner]
        return []
    if packet.is_udp:
        if _is_response_payload(packet.payload):
            return []
        service = personality.service_at(PROTO_UDP, packet.dst_port)
        if service is None:
            unreachable = packet.reply_template()
            unreachable.protocol = PROTO_ICMP
            unreachable.icmp_type = ICMP_DEST_UNREACHABLE
            unreachable.size = 56
            return [unreachable]
        if service.banner:
            return [packet.reply_template(payload=f"{_BANNER_PREFIX}{service.banner}")]
        return []
    return []  # unknown IP protocol: the guest drops it silently too


class FlowState:
    """Promotion-relevant state of one flow inside a session.

    ``exchanges`` counts application exchanges (payload-carrying,
    non-response TCP/UDP packets) and ``payload_bytes`` accumulates their
    payload lengths — both *include* the packet currently under
    consideration, so triggers evaluate prospective values.
    """

    __slots__ = ("exchanges", "payload_bytes")

    def __init__(self) -> None:
        self.exchanges = 0
        self.payload_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlowState exchanges={self.exchanges} bytes={self.payload_bytes}>"


class EmulatedSession:
    """Per-address emulator state: flow depths, banner, replay buffer.

    ``cache_gen`` is the validity token for anything cached against this
    session's address (:mod:`repro.fidelity.span`): the ladder bumps it
    when it drops the session, and when the gateway binds a VM over the
    address. A cached entry holds while the generation it was resolved
    under is still current.

    ``buffered`` holds packets, and — for arrivals the span lane
    absorbed — lazy ``(columns, index)`` pairs that
    :func:`repro.fidelity.span.materialise` turns into packets on
    promotion."""

    __slots__ = (
        "personality",
        "created_at",
        "last_seen",
        "flows",
        "buffered",
        "buffer_dropped",
        "banner",
        "packets_absorbed",
        "payload_bytes_total",
        "cache_gen",
    )

    def __init__(self, personality: Personality, now: float) -> None:
        self.personality = personality
        self.created_at = now
        self.last_seen = now
        self.flows: Dict[FlowKey, FlowState] = {}
        self.buffered: list = []
        self.buffer_dropped = 0
        self.banner: Optional[str] = None
        self.packets_absorbed = 0
        self.payload_bytes_total = 0
        self.cache_gen = 0

    def flow_state(self, key: FlowKey) -> Tuple[FlowState, bool]:
        """The state of flow ``key`` inside this session, created on
        first sight; returns ``(state, flow_created)``."""
        state = self.flows.get(key)
        if state is None:
            state = self.flows[key] = FlowState()
            return state, True
        return state, False

    def note(self, packet: Packet, now: float) -> Tuple[FlowState, bool]:
        """Account ``packet`` against its flow's state (creating it on
        first sight) and return ``(state, flow_created)``. Called before
        trigger evaluation, so triggers see the packet's contribution."""
        self.last_seen = now
        state, created = self.flow_state(FlowKey.from_packet(packet))
        if (
            packet.protocol in (PROTO_TCP, PROTO_UDP)
            and packet.payload
            and not _is_response_payload(packet.payload)
        ):
            state.exchanges += 1
            state.payload_bytes += len(packet.payload)
            self.payload_bytes_total += len(packet.payload)
        return state, created

    def emulate(self, packet: Packet) -> List[Packet]:
        """Answer ``packet`` and track the negotiated banner."""
        self.packets_absorbed += 1
        replies = emulator_replies(self.personality, packet)
        for reply in replies:
            if reply.payload.startswith(_BANNER_PREFIX):
                self.banner = reply.payload[len(_BANNER_PREFIX):]
        return replies

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EmulatedSession {self.personality.name} flows={len(self.flows)}"
            f" absorbed={self.packets_absorbed} buffered={len(self.buffered)}>"
        )
