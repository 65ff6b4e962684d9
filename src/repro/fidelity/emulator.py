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

:class:`AddressTable` is the gateway's one table of covered addresses,
a row each: the VM bound there, if any, and what the stateless reply
function does not need but the promotion engine does — per-flow
exchange depth and payload bytes, the negotiated banner, and the bounded
chain of absorbed packets that becomes the handoff replay, with the
packets queued for a cloning VM held on top. :class:`EmulatedSession`
is a view of one row.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import count
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.flow import FiveTuple, FlowRecord, packet_flow_key
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.services.guest import BANNER_PREFIX, _is_response_payload
from repro.services.guest import service_replies as emulator_replies
from repro.services.personality import Personality
from repro.sim.rows import RowTable

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.batch import PacketColumns
    from repro.vmm.vm import VirtualMachine

__all__ = [
    "CLONING", "EMULATED", "FRESH_FLOW", "MAX_HANDOFF_PACKETS", "RUNNING",
    "AddressTable", "EmulatedSession", "FlowProgress", "emulator_replies",
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


#: Bound on an address's replay window: the absorbed packets a promotion
#: carries into the VM, the most recent kept.
MAX_HANDOFF_PACKETS = 64
#: Fresh flows an address's ``flows`` lists as a tuple of keys; one more
#: and it becomes a dict.
_FRESH_KEYS = 8
#: A row's ``state``: no VM is bound at the address.
EMULATED = 0
#: A VM is bound and not yet handed its chain (the gateway's ``vm_ready``).
CLONING = 1
#: A VM is bound and has been handed its chain.
RUNNING = 2
#: Where the place of a queued packet on a chain starts: the absorbed
#: packets' places count up from 0, so the two never meet.
_QUEUED = 1 << 31
#: Session stamps, unique in the process: a verdict one table's span
#: lane wrote is never trusted under another.
_stamps = count(1)


def _fresh_keys(flows: tuple) -> Tuple[FiveTuple, ...]:
    """The keys of a ``flows`` entry that is one key or a tuple of keys."""
    return (flows,) if type(flows[0]) is not tuple else flows


class AddressTable(RowTable, Mapping):
    """The gateway's covered addresses as rows, keyed by address value
    (``gateway.addresses``; with the fidelity ladder on, also
    ``ladder.sessions``): one row per address an emulated session
    serves or a VM is bound to. As a mapping it yields an
    :class:`EmulatedSession` view per address.

    Columns (rows, serials and creation-bucket expiry are
    :class:`~repro.sim.rows.RowTable`'s):

    * ``state``: ``EMULATED`` while no VM is bound, ``CLONING`` from the
      bind until the VM is handed its chain, ``RUNNING`` after. ``vm`` is
      the bound VM, and ``timer`` the gateway's watchdog over the
      packets queued for it (only with a ``pending_timeout``).
    * ``stamp`` names the row's emulated session, as it stands, to the
      span lane's verdicts (:mod:`repro.fidelity.span`): a unique nonzero
      int drawn when the session opens, and drawn afresh when a VM is
      bound over it (a respawn; the session lives on unconsulted until
      it expires or the VM goes) or a new span lane starts. A row that
      holds no session has stamp 0, which no verdict carries. A flow
      row's verdict holds only while the address's live row still bears
      its stamp, so a promotion or a bound VM outdates it.
    * ``since`` (when the session opened; once promoted, when the
      promotion was; for a VM bound to a cold address, the bind),
      ``last_seen`` (expiry reads it), ``absorbed`` (the packets the
      emulator answered), ``banner`` (the last one served, or None),
      ``trigger`` (a promoted row's, as its index in ``TRIGGER_NAMES``
      from 1; 0 while none).
    * ``personality``, only when the table has no sole ``personality``
      every address answers as.
    * ``flows``: the address's flows, each with its
      :class:`FlowProgress`. None until the first flow, then that flow's
      key tuple alone while it is the only one (the span lane's key is
      the flow row's own tuple, so this costs no object), then a tuple of
      up to ``_FRESH_KEYS`` keys, all while no flow has made progress;
      from the first exchange, or past ``_FRESH_KEYS`` flows, a dict
      key -> progress.
    * ``head``, ``chained`` and ``queued``: the chain. Every absorbed
      packet is linked in, newest at ``head``; a link ``>= 0`` is a row
      of the trace attachment ``chained`` (the span lane's arrivals, no
      object each), whose ``prev`` column names the link before it, and
      a link ``< 0`` is a packet the per-packet lane held, in ``held``
      with the link before it. The replay window is the newest
      ``min(absorbed, MAX_HANDOFF_PACKETS)`` absorbed links, so
      ``absorbed`` doubles as their count and nothing is evicted per
      packet: only a held packet leaving the window is let go, found by
      its link, which names the row and the packet's place on the chain.
      A packet that arrives while the row's VM clones is held on top,
      with the :class:`~repro.net.flow.FlowRecord` view it was observed
      under; ``queued`` counts them (a row is freed only once they are
      taken). ``holding`` counts, per row with any, the held links of its
      replay window.
    """

    COLUMNS = {
        "last_seen": "d", "serial": "q", "since": "d", "stamp": "q",
        "absorbed": "q", "head": "q", "queued": "h", "state": "b", "trigger": "b",
    }
    OBJECT_COLUMNS = ("keys", "flows", "banner", "chained", "vm", "timer")

    def __init__(
        self, idle_timeout: float = 60.0, personality: Optional[Personality] = None
    ) -> None:
        super().__init__(idle_timeout)
        self.sole = personality
        self.held: Dict[int, tuple] = {}
        self.holding: Dict[int, int] = {}

    def answer_as(self, personality: Optional[Personality]) -> None:
        """Every address answers as ``personality``, or, when None, as
        its own, kept in a ``personality`` column: set before the first
        row opens (the column has no capacity until then)."""
        self.sole = personality
        if personality is None:
            self.OBJECT_COLUMNS += ("personality",)
            self.personality: List[Optional[Personality]] = []
            self._lists.append(self.personality)

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def open(
        self, value: int, now: float, personality: Optional[Personality] = None
    ) -> int:
        """A new session row for the address of value ``value``, answering
        as ``personality`` (the table's sole one when it has it)."""
        row = self._open(value, now)
        self.since[row] = now
        self.stamp[row] = next(_stamps)
        self.absorbed[row] = self.queued[row] = self.trigger[row] = 0
        self.state[row] = EMULATED
        if self.sole is None:
            self.personality[row] = personality
        return row

    def promote(self, row: int, trigger: int, now: float) -> None:
        """``row``'s session ends in a promotion by ``trigger`` (its
        code): what it absorbed waits on the chain, as the replay window,
        for the clone."""
        self.stamp[row] = 0
        self.since[row] = now
        self.trigger[row] = trigger
        self.flows[row] = self.banner[row] = None

    def bind(self, value: int, vm: "VirtualMachine", now: float) -> int:
        """Bind ``vm`` at the address of value ``value``; returns its row,
        opened if it has none (one that never expires: only the VM's
        going frees it)."""
        row = self.index.get(value)
        if row is None:
            row = self._open(value, now, expires=False)
            self.since[row] = now
            self.stamp[row] = self.absorbed[row] = self.queued[row] = self.trigger[row] = 0
        elif self.stamp[row]:
            self.stamp[row] = next(_stamps)
        self.state[row] = CLONING
        self.vm[row] = vm
        return row

    def unbind(self, row: int) -> None:
        """``row``'s VM goes, with nothing left queued for it: a session
        it was bound over answers again, else the row is freed."""
        self.vm[row] = None
        if self.stamp[row]:
            self.state[row] = EMULATED
        else:
            self._free_rows((row,))
            if not self.index:
                self._release_if_empty()

    def restamp(self) -> None:
        """Give every live session a new stamp: a new span lane trusts no
        verdict an earlier one wrote."""
        for row in self.index.values():
            if self.stamp[row]:
                self.stamp[row] = next(_stamps)

    def _expire(self, rows: List[int]) -> List[int]:
        """Idle sessions expire: a row with a VM bound over its session
        keeps the VM, and a row with no session (promoted, or bound cold)
        does not expire. Returns the addresses whose session expired."""
        stamps, vms = self.stamp, self.vm
        sessions = [row for row in rows if stamps[row]]
        keys = [self.keys[row] for row in sessions]
        self._free_rows([row for row in sessions if vms[row] is None])
        for row in sessions:
            if vms[row] is not None:
                self.drop_replay(row)
                stamps[row] = 0
                self.flows[row] = self.banner[row] = None
        return keys

    def _free_rows(self, rows: Sequence[int]) -> None:
        holding = self.holding
        if holding:
            for row in rows:
                if row in holding:
                    self._drop_window(row)
        super()._free_rows(rows)

    def _release_if_empty(self) -> None:
        super()._release_if_empty()
        if not self.index:
            # Empty already; this lets go of their capacity.
            self.held.clear()
            self.holding.clear()

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
    # The chain
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

    def queue(self, row: int, packet: Packet, record: FlowRecord) -> None:
        """Hold ``packet``, which arrived while ``row``'s VM clones, on
        top of the chain, with the flow view it was observed under."""
        n = self.queued[row]
        link = self._held_link(row, _QUEUED + n)
        self.held[link] = (packet, self.head[row], record)
        self.head[row] = link
        self.queued[row] = n + 1

    def take_queued(self, row: int) -> List[Tuple[Packet, FlowRecord]]:
        """The packets queued on ``row``'s chain, oldest first, taken off
        it with their flow views; their watchdog, if any, is stopped."""
        timer = self.timer[row]
        if timer is not None:
            timer.cancel()
            self.timer[row] = None
        n = self.queued[row]
        if not n:
            return []
        held = self.held
        taken = [held.pop(self._held_link(row, _QUEUED + i)) for i in range(n)]
        self.head[row] = taken[0][1]
        self.queued[row] = 0
        return [(packet, record) for packet, __, record in taken]

    def drop_replay(self, row: int) -> None:
        """Let go of ``row``'s replay window, and of its trigger."""
        self._drop_window(row)
        self.absorbed[row] = self.trigger[row] = 0
        self.chained[row] = None

    def _drop_window(self, row: int) -> None:
        """Let go of the packets ``row`` holds in its replay window."""
        absorbed = self.absorbed[row]
        self._release(row, range(max(0, absorbed - MAX_HANDOFF_PACKETS), absorbed))

    def _release(self, row: int, seqs: Sequence[int]) -> None:
        """Let go of the packets ``row`` holds at places ``seqs`` on its
        chain, if it holds them."""
        held = self.held
        taken = [held.pop(self._held_link(row, seq), None) for seq in seqs]
        released = len(taken) - taken.count(None)
        if released:
            left = self.holding[row] - released
            if left:
                self.holding[row] = left
            else:
                del self.holding[row]

    def _held_link(self, row: int, seq: int) -> int:
        """The link of the packet ``row`` holds at place ``seq`` on its
        chain: negative, and unique to the row (its serial) and ``seq``,
        so the packet a full window pushes out is found by key rather
        than by a walk."""
        return -1 - (self.serial[row] << 32 | seq)

    def _make_room(self, row: int, seq: int) -> None:
        """Before link ``seq`` joins ``row``'s chain: let go of the packet
        it pushes out of a full window, if that one is held."""
        if seq >= MAX_HANDOFF_PACKETS and row in self.holding:
            self._release(row, (seq - MAX_HANDOFF_PACKETS,))

    def _window(self, row: int) -> List[int]:
        """The replay window of ``row``'s chain, newest link first."""
        size = min(self.absorbed[row], MAX_HANDOFF_PACKETS)
        if not size:
            return []
        held = self.held
        columns = self.chained[row]
        link = self.head[row]
        for __ in range(self.queued[row]):
            link = held[link][1]
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
            self._drop_window(row)
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
        """``row``'s replay window as packets, oldest first, for a caller
        that hands them on (a VM's handoff, :meth:`_index_into`): a trace
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
    freed (its session expired, or its VM went) the view is detached and
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
        return self.table.since[self._live_row()]

    @property
    def last_seen(self) -> float:
        return self.table.last_seen[self._live_row()]

    @property
    def packets_absorbed(self) -> int:
        return self.table.absorbed[self._live_row()]

    @property
    def buffered_count(self) -> int:
        """Packets in the replay window."""
        return min(self.packets_absorbed, MAX_HANDOFF_PACKETS)

    @property
    def banner(self) -> Optional[str]:
        return self.table.banner[self._live_row()]

    @property
    def flows(self) -> Dict[FiveTuple, FlowProgress]:
        """A copy: flow key -> progress."""
        return self.table.flows_of(self._live_row())

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
            state = FlowProgress(
                state.exchanges + 1, state.payload_bytes + len(packet.payload)
            )
            table.advance(row, key, state)
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
