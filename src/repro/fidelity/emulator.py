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

from array import array
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.net.flow import FiveTuple, packet_flow_key
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.services.guest import BANNER_PREFIX, _is_response_payload
from repro.services.guest import service_replies as emulator_replies
from repro.services.personality import Personality

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.batch import PacketColumns

__all__ = ["FRESH_FLOW", "EmulatedSession", "FlowProgress", "emulator_replies"]


class FlowProgress(NamedTuple):
    """Promotion-relevant state of one flow inside a session.

    ``exchanges`` counts application exchanges (payload-carrying,
    non-response TCP/UDP packets) and ``payload_bytes`` accumulates their
    payload lengths — both *include* the packet currently under
    consideration, so triggers evaluate prospective values. Immutable:
    an exchange replaces the flow's value, and every flow that has had
    none (every span-lane flow) shares :data:`FRESH_FLOW`.
    """

    exchanges: int
    payload_bytes: int


#: The progress of a flow with no application exchange yet.
FRESH_FLOW = FlowProgress(0, 0)


class EmulatedSession:
    """Per-address emulator state: flow depths, banner, replay buffer.

    ``stamp`` names this session, as it stands, to the span lane's
    verdicts (:mod:`repro.fidelity.span`): a unique int the ladder draws
    when it opens the session and draws afresh when the gateway binds a
    VM over the address or a new span lane starts. A flow row's verdict
    carries the stamp it was resolved against and holds only while the
    address's live session still bears it; a dropped session takes its
    stamp with it. A session built outside a ladder has stamp 0.

    ``flows`` maps each flow's canonical key to its :class:`FlowProgress`;
    a flow the span lane opens shares its key tuple with the flow
    table's row.

    ``buffered`` is the handoff buffer, in arrival order: an
    ``array('l')`` of row indices into the trace attachment ``columns``
    (the span lane's absorbed arrivals: no object per absorbed packet),
    where ``-1`` stands for the next packet of ``held`` (those the
    per-packet lane absorbed, oldest first). :meth:`buffered_packets` is
    the buffer as packets."""

    __slots__ = (
        "personality",
        "created_at",
        "last_seen",
        "flows",
        "buffered",
        "held",
        "columns",
        "buffer_dropped",
        "banner",
        "packets_absorbed",
        "payload_bytes_total",
        "stamp",
    )

    def __init__(self, personality: Personality, now: float, stamp: int = 0) -> None:
        self.personality = personality
        self.created_at = now
        self.last_seen = now
        self.flows: Dict[FiveTuple, FlowProgress] = {}
        self.buffered = array("l")
        self.held: Optional[List[Packet]] = None
        self.columns: Optional["PacketColumns"] = None
        self.buffer_dropped = 0
        self.banner: Optional[str] = None
        self.packets_absorbed = 0
        self.payload_bytes_total = 0
        self.stamp = stamp

    def flow_state(self, key: FiveTuple) -> Tuple[FlowProgress, bool]:
        """The progress of flow ``key`` inside this session, opened on
        first sight; returns ``(progress, flow_created)``."""
        state = self.flows.get(key)
        if state is None:
            self.flows[key] = FRESH_FLOW
            return FRESH_FLOW, True
        return state, False

    def buffered_packets(self) -> List[Packet]:
        """The handoff buffer with every row index materialized, for a
        caller that hands the packets on (a promotion, :meth:`index_into`):
        each is taken out of the attachment's packet cache."""
        held = iter(self.held or ())
        columns = self.columns
        return [
            next(held) if row < 0 else columns.take_packet(row)
            for row in self.buffered
        ]

    def hold(self, packet: Packet) -> None:
        """Buffer a packet the per-packet lane absorbed."""
        if self.held is None:
            self.held = []
        self.held.append(packet)
        self.buffered.append(-1)

    def evict_oldest(self) -> None:
        """Drop the oldest buffered arrival (the buffer is full)."""
        if self.buffered[0] < 0:
            del self.held[0]
        del self.buffered[0]
        self.buffer_dropped += 1

    def index_into(self, columns: "PacketColumns") -> None:
        """Row indices buffered from now on point into ``columns``. Any
        still pointing into another attachment (a second trace feeding
        the same farm) become held packets first."""
        if self.buffered and max(self.buffered) >= 0:
            self.held = self.buffered_packets()
            self.buffered = array("l", [-1]) * len(self.held)
        self.columns = columns

    def note(self, packet: Packet, now: float) -> Tuple[FlowProgress, bool]:
        """Account ``packet`` against its flow's progress (opening it on
        first sight) and return ``(progress, flow_created)``. Called
        before trigger evaluation, so triggers see the packet's
        contribution."""
        self.last_seen = now
        key = packet_flow_key(packet)
        state, created = self.flow_state(key)
        if (
            packet.protocol in (PROTO_TCP, PROTO_UDP)
            and packet.payload
            and not _is_response_payload(packet.payload)
        ):
            size = len(packet.payload)
            state = self.flows[key] = FlowProgress(
                state.exchanges + 1, state.payload_bytes + size
            )
            self.payload_bytes_total += size
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
