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

:class:`AddressTable` holds the per-address state the stateless reply
function does not need but the promotion engine does, one row per
emulated address: per-flow exchange depth and payload-byte
accumulation, the negotiated banner, and the bounded chain of absorbed
packets that becomes the handoff replay. :class:`EmulatedSession` is a
view of one row.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.flow import FiveTuple, packet_flow_key
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.services.guest import BANNER_PREFIX, _is_response_payload
from repro.services.guest import service_replies as emulator_replies
from repro.services.personality import Personality
from repro.sim.rows import RowTable

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.batch import PacketColumns

__all__ = [
    "FRESH_FLOW", "MAX_HANDOFF_PACKETS", "AddressTable", "EmulatedSession",
    "FlowProgress", "emulator_replies",
]


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


#: Bound on an address's handoff chain: the packets a promotion carries
#: into the VM, the most recent first kept.
MAX_HANDOFF_PACKETS = 64
#: Fresh flows an address's ``flows`` lists as a tuple of keys; one more
#: and it becomes a dict.
_FRESH_KEYS = 8


def _fresh_keys(flows: tuple) -> Tuple[FiveTuple, ...]:
    """The keys of a ``flows`` entry that is one key or a tuple of keys."""
    return (flows,) if type(flows[0]) is not tuple else flows


class AddressTable(RowTable, Mapping):
    """The emulator tier's live addresses as rows, keyed by address
    value: ``ladder.sessions``. As a mapping it yields an
    :class:`EmulatedSession` view per address.

    Columns (rows, serials and creation-bucket expiry are
    :class:`~repro.sim.rows.RowTable`'s):

    * ``stamp`` names the session, as it stands, to the span lane's
      verdicts (:mod:`repro.fidelity.span`): a unique int the ladder
      draws when it opens the row and draws afresh when the gateway
      binds a VM over the address or a new span lane starts. A flow
      row's verdict carries the stamp it was resolved against and holds
      only while the address's live row still bears it; a dropped row
      takes its stamp with it. A row opened outside a ladder has stamp 0.
    * ``created_at``, ``last_seen`` (expiry reads it), ``absorbed`` (the
      packets the emulator answered), ``payload_bytes`` (their
      application payload), ``banner`` (the last one served, or None).
    * ``personality``, only when the table has no sole ``personality``
      every address answers as.
    * ``flows``: the address's flows, each with its
      :class:`FlowProgress`. None until the first flow, then that flow's
      key tuple alone while it is the only one (the span lane's key is
      the flow row's own tuple, so this costs no object), then a tuple of
      up to ``_FRESH_KEYS`` keys, all while no flow has made progress;
      from the first exchange, or past ``_FRESH_KEYS`` flows, a dict
      key -> progress.
    * ``head`` and ``chained``: the handoff chain. Every absorbed packet
      is linked in, newest at ``head``; a link ``>= 0`` is a row of the
      trace attachment ``chained`` (the span lane's arrivals, no object
      each), whose ``prev`` column names the link before it, and a link
      ``< 0`` is a packet the per-packet lane held, in ``held`` with the
      link before it. The chain's live part is its newest
      ``min(absorbed, MAX_HANDOFF_PACKETS)`` links, so ``absorbed``
      doubles as the count and nothing is evicted per packet: only a held
      packet leaving that window is let go, found by its link, which
      names the session and the packet's place in it (``holding``
      counts, per row with any, the held links in its window).
    """

    COLUMNS = {
        "last_seen": "d", "serial": "q", "created_at": "d", "stamp": "q",
        "absorbed": "q", "payload_bytes": "q", "head": "q",
    }
    OBJECT_COLUMNS = ("keys", "flows", "banner", "chained")

    def __init__(
        self, idle_timeout: float = 60.0, personality: Optional[Personality] = None
    ) -> None:
        self.sole = personality
        if personality is None:
            self.OBJECT_COLUMNS = AddressTable.OBJECT_COLUMNS + ("personality",)
        super().__init__(idle_timeout)
        self.held: Dict[int, Tuple[Packet, int]] = {}
        self.holding: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def open(
        self, value: int, now: float, stamp: int = 0,
        personality: Optional[Personality] = None,
    ) -> int:
        """A new row for the address of value ``value``, answering as
        ``personality`` (the table's sole one when it has it)."""
        row = self._open(value, now)
        self.created_at[row] = now
        self.stamp[row] = stamp
        self.absorbed[row] = 0
        self.payload_bytes[row] = 0
        if self.sole is None:
            self.personality[row] = personality
        return row

    def drop(self, value: int) -> None:
        """Forget the address of value ``value``."""
        self._free_row(self.index[value])
        self._release_if_empty()

    def _free_rows(self, rows: Sequence[int]) -> None:
        holding = self.holding
        if holding:
            for row in rows:
                if row in holding:
                    self._release_held(row)
        super()._free_rows(rows)

    def _release_if_empty(self) -> None:
        super()._release_if_empty()
        if not self.index:
            # Empty already; this lets go of their capacity.
            self.held.clear()
            self.holding.clear()

    def session(self, row: int) -> "EmulatedSession":
        """A view of the live ``row``."""
        return EmulatedSession(self, row)

    def personality_of(self, row: int) -> Personality:
        return self.sole if self.sole is not None else self.personality[row]

    def __getitem__(self, value: int) -> "EmulatedSession":
        return EmulatedSession(self, self.index[value])

    def __iter__(self) -> Iterator[int]:
        return iter(self.index)

    # ------------------------------------------------------------------ #
    # Flows
    # ------------------------------------------------------------------ #

    def flow_state(self, row: int, key: FiveTuple) -> Tuple[FlowProgress, bool]:
        """The progress of flow ``key`` at ``row``, opened on first
        sight; returns ``(progress, flow_created)``."""
        flows = self.flows[row]
        if flows is None:
            self.flows[row] = key
            return FRESH_FLOW, True
        if type(flows) is tuple:
            if type(flows[0]) is not tuple:  # one key
                if flows == key:
                    return FRESH_FLOW, False
                self.flows[row] = (flows, key)
                return FRESH_FLOW, True
            if key in flows:
                return FRESH_FLOW, False
            keys = flows + (key,)
            self.flows[row] = (
                keys if len(keys) <= _FRESH_KEYS else dict.fromkeys(keys, FRESH_FLOW)
            )
            return FRESH_FLOW, True
        state = flows.get(key)
        if state is None:
            flows[key] = FRESH_FLOW
            return FRESH_FLOW, True
        return state, False

    def advance(self, row: int, key: FiveTuple, state: FlowProgress) -> None:
        """Record ``state`` as the progress of ``row``'s open flow ``key``."""
        flows = self.flows[row]
        if type(flows) is not dict:
            flows = self.flows[row] = dict.fromkeys(_fresh_keys(flows), FRESH_FLOW)
        flows[key] = state

    def flows_of(self, row: int) -> Dict[FiveTuple, FlowProgress]:
        flows = self.flows[row]
        if flows is None:
            return {}
        if type(flows) is tuple:
            return dict.fromkeys(_fresh_keys(flows), FRESH_FLOW)
        return dict(flows)

    # ------------------------------------------------------------------ #
    # The handoff chain
    # ------------------------------------------------------------------ #

    def hold(self, row: int, packet: Packet) -> None:
        """Chain a packet the per-packet lane absorbed."""
        seq = self.absorbed[row]
        self._make_room(row, seq)
        link = self._held_link(row, seq)
        self.held[link] = (packet, self.head[row])
        self.head[row] = link
        self.absorbed[row] = seq + 1
        self.holding[row] = self.holding.get(row, 0) + 1

    def chain(self, row: int, columns: "PacketColumns", i: int) -> None:
        """Chain arrival ``i`` of ``columns``, which the span lane
        absorbed. (The lane does this itself while the row already chains
        into ``columns`` and holds nothing that could leave its window.)"""
        if self.chained[row] is not columns:
            self._index_into(row, columns)
        seq = self.absorbed[row]
        self._make_room(row, seq)
        columns.prev[i] = self.head[row]
        self.head[row] = i
        self.absorbed[row] = seq + 1

    def _held_link(self, row: int, seq: int) -> int:
        """The link of the packet ``row``'s session held as its
        ``seq``-th absorbed (from 0): negative, and unique to the session
        (its row serial) and ``seq``, so the packet a full window pushes
        out is found by key rather than by a walk."""
        return -1 - (self.serial[row] << 32 | seq)

    def _make_room(self, row: int, seq: int) -> None:
        """Before link ``seq`` joins ``row``'s chain: let go of the packet
        it pushes out of a full window, if that one is held."""
        if seq >= MAX_HANDOFF_PACKETS and row in self.holding:
            if self.held.pop(self._held_link(row, seq - MAX_HANDOFF_PACKETS), None):
                left = self.holding[row] - 1
                if left:
                    self.holding[row] = left
                else:
                    del self.holding[row]

    def _release_held(self, row: int) -> None:
        """Let go of every held packet in ``row``'s window."""
        held = self.held
        absorbed = self.absorbed[row]
        for seq in range(max(0, absorbed - MAX_HANDOFF_PACKETS), absorbed):
            held.pop(self._held_link(row, seq), None)
        del self.holding[row]

    def _window(self, row: int) -> List[int]:
        """The live part of ``row``'s chain, newest link first."""
        size = min(self.absorbed[row], MAX_HANDOFF_PACKETS)
        if not size:
            return []
        held = self.held
        columns = self.chained[row]
        link = self.head[row]
        links = [link]
        for __ in range(size - 1):
            link = held[link][1] if link < 0 else columns.prev[link]
            links.append(link)
        return links

    def _index_into(self, row: int, columns: "PacketColumns") -> None:
        """Links added to ``row`` from now on are rows of ``columns``. Any
        live one naming a row of another attachment (a second trace
        feeding the same farm) becomes a held packet first."""
        if self.chained[row] is not None and any(
            link >= 0 for link in self._window(row)
        ):
            packets = self.buffered_packets(row)
            if row in self.holding:
                self._release_held(row)
            head = 0
            first = self.absorbed[row] - len(packets)
            for seq, packet in enumerate(packets, first):
                link = self._held_link(row, seq)
                self.held[link] = (packet, head)
                head = link
            self.head[row] = head
            self.holding[row] = len(packets)
        self.chained[row] = columns

    def buffered_packets(self, row: int) -> List[Packet]:
        """``row``'s handoff chain as packets, oldest first, for a caller
        that hands them on (a promotion, :meth:`_index_into`): a trace
        row's is taken out of its attachment's packet cache."""
        links = self._window(row)
        links.reverse()
        held = self.held
        columns = self.chained[row]
        return [
            held[link][0] if link < 0 else columns.take_packet(link)
            for link in links
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AddressTable addresses={len(self)} held={len(self.held)}>"


class EmulatedSession:
    """A view of one address's row of an :class:`AddressTable`, as the
    per-packet lane handles it: ``(table, row, serial)``. Once the row is
    freed (the address promoted or expired) the view is detached and
    reading through it raises :class:`LookupError`."""

    __slots__ = ("table", "row", "serial")

    def __init__(self, table: AddressTable, row: int) -> None:
        self.table = table
        self.row = row
        self.serial = table.serial[row]

    def _live_row(self) -> int:
        if not self.table.holds(self.row, self.serial):
            raise LookupError("emulated session detached: its address left the table")
        return self.row

    @property
    def personality(self) -> Personality:
        return self.table.personality_of(self._live_row())

    @property
    def created_at(self) -> float:
        return self.table.created_at[self._live_row()]

    @property
    def last_seen(self) -> float:
        return self.table.last_seen[self._live_row()]

    @property
    def packets_absorbed(self) -> int:
        return self.table.absorbed[self._live_row()]

    @property
    def payload_bytes_total(self) -> int:
        return self.table.payload_bytes[self._live_row()]

    @property
    def buffered_count(self) -> int:
        """Packets in the handoff chain's live part."""
        return min(self.packets_absorbed, MAX_HANDOFF_PACKETS)

    @property
    def buffer_dropped(self) -> int:
        """Absorbed packets that fell off the handoff chain's live part."""
        return self.packets_absorbed - self.buffered_count

    @property
    def banner(self) -> Optional[str]:
        return self.table.banner[self._live_row()]

    @property
    def flows(self) -> Dict[FiveTuple, FlowProgress]:
        """A copy: flow key -> progress."""
        return self.table.flows_of(self._live_row())

    def flow_state(self, key: FiveTuple) -> Tuple[FlowProgress, bool]:
        """The progress of flow ``key`` inside this session, opened on
        first sight; returns ``(progress, flow_created)``."""
        return self.table.flow_state(self._live_row(), key)

    def buffered_packets(self) -> List[Packet]:
        """The handoff chain as packets (:meth:`AddressTable.buffered_packets`)."""
        return self.table.buffered_packets(self._live_row())

    def note(self, packet: Packet, now: float) -> Tuple[FlowProgress, bool]:
        """Account ``packet`` against its flow's progress (opening it on
        first sight) and return ``(progress, flow_created)``. Called
        before trigger evaluation, so triggers see the packet's
        contribution."""
        table = self.table
        row = self._live_row()
        table.last_seen[row] = now
        key = packet_flow_key(packet)
        state, created = table.flow_state(row, key)
        if (
            packet.protocol in (PROTO_TCP, PROTO_UDP)
            and packet.payload
            and not _is_response_payload(packet.payload)
        ):
            size = len(packet.payload)
            state = FlowProgress(state.exchanges + 1, state.payload_bytes + size)
            table.advance(row, key, state)
            table.payload_bytes[row] += size
        return state, created

    def emulate(self, packet: Packet) -> List[Packet]:
        """Answer ``packet``, track the negotiated banner, and chain the
        packet for the handoff."""
        table = self.table
        row = self._live_row()
        replies = emulator_replies(table.personality_of(row), packet)
        for reply in replies:
            if reply.payload.startswith(BANNER_PREFIX):
                table.banner[row] = reply.payload[len(BANNER_PREFIX):]
        table.hold(row, packet)
        return replies

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.table.holds(self.row, self.serial):
            return f"<EmulatedSession row={self.row} detached>"
        return (
            f"<EmulatedSession {self.personality.name} flows={len(self.flows)}"
            f" absorbed={self.packets_absorbed} buffered={self.buffered_count}>"
        )
