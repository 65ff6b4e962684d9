"""The protocol-emulator tier: guest-faithful replies without a VM.

The contract of this module is **byte parity with the guest**: for any
packet that does not trigger a promotion, :func:`emulator_replies` must
return exactly the packets a freshly cloned
:class:`~repro.services.guest.GuestHost` of the same personality would
return — same flags, same payloads, same sizes. Parity holds by
construction: ``emulator_replies`` *is* the guest's own reply function
(:func:`repro.services.guest.service_replies`), under the name the
emulator tier, the span lane and the responder baseline import. The
world-matrix equivalence oracle and ``tests/test_fidelity.py`` still
check it packet by packet. Exploit packets that would actually infect
the guest must be promoted *before* it is called.

:class:`EmulatedSession` adds the per-address state the stateless reply
function does not need but the promotion engine does: per-flow exchange
depth and payload-byte accumulation, the negotiated banner, and the
bounded buffer of absorbed packets that becomes the handoff replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.flow import FlowKey
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.services.guest import BANNER_PREFIX, _is_response_payload
from repro.services.guest import service_replies as emulator_replies
from repro.services.personality import Personality

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.batch import PacketColumns

__all__ = ["EmulatedSession", "FlowState", "emulator_replies"]


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

    ``buffered`` is the handoff buffer. The per-packet lane appends
    packets; the span lane appends the bare row index of each arrival it
    absorbed (an int: no object per absorbed packet), and ``columns`` is
    the trace attachment those indices point into.
    :meth:`buffered_packets` is the buffer as packets."""

    __slots__ = (
        "personality",
        "created_at",
        "last_seen",
        "flows",
        "buffered",
        "columns",
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
        self.columns: Optional["PacketColumns"] = None
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

    def buffered_packets(self) -> List[Packet]:
        """The handoff buffer with every row index materialized."""
        columns = self.columns
        return [
            p if p.__class__ is Packet else columns.packet_at(p)
            for p in self.buffered
        ]

    def index_into(self, columns: "PacketColumns") -> None:
        """Row indices buffered from now on point into ``columns``. Any
        still pointing into another attachment (a second trace feeding
        the same farm) become packets first."""
        self.buffered = self.buffered_packets()
        self.columns = columns

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
            if reply.payload.startswith(BANNER_PREFIX):
                self.banner = reply.payload[len(BANNER_PREFIX):]
        return replies

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EmulatedSession {self.personality.name} flows={len(self.flows)}"
            f" absorbed={self.packets_absorbed} buffered={len(self.buffered)}>"
        )
