"""The fidelity-ladder coordinator: sessions, promotion, demotion.

One :class:`FidelityLadder` sits beside the gateway (attached when
``HoneyfarmConfig.ladder``). The gateway consults it for every
packet addressed to a *cold* address — one with no live or cloning VM —
and the ladder either absorbs the packet into an emulated session
(returning the guest-faithful replies) or declares a promotion, in which
case the gateway falls through to its normal flash-clone dispatch with
the triggering packet queued for the new VM.

Sessions are rows of an :class:`~repro.fidelity.emulator.AddressTable`
(``sessions``), and pending handoffs a dict, both keyed by the address,
a plain int like every address inside the farm. An address the emulator
tier serves costs a row of typed columns, not objects; the per-packet
lane handles it through an :class:`~repro.fidelity.emulator.EmulatedSession`
view.

Accounting contract (see ``docs/FIDELITY.md``): packets absorbed by the
emulator are counted under ``gateway.emulated`` — a first-class bucket
of the packet-conservation ledger — and handoff replays of those same
packets into the promoted VM are counted under
``ladder.handoff_packets_replayed`` only, never ``gateway.delivered``,
so no packet is ever accounted twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional

from repro.core.config import HoneyfarmConfig
from repro.fidelity.emulator import MAX_HANDOFF_PACKETS, AddressTable, EmulatedSession
from repro.fidelity.handoff import HandoffRecord
from repro.fidelity.triggers import TRIGGER_NAMES, promotion_trigger
from repro.net.addr import AddressSpaceInventory, dotted
from repro.net.packet import Packet
from repro.obs import recorder as _obs
from repro.services.personality import Personality, PersonalityRegistry
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricRegistry

__all__ = ["FidelityLadder", "LadderVerdict"]

#: Session stamps (:class:`AddressTable`), unique in the process: a
#: verdict one ladder's span lane wrote is never trusted under another.
_stamps = count(1)


@dataclass
class LadderVerdict:
    """What the ladder decided about one packet."""

    promoted: bool
    trigger: Optional[str] = None
    replies: List[Packet] = field(default_factory=list)


class FidelityLadder:
    """See module docstring."""

    #: Bound on the per-session replay buffer carried into a promoted VM;
    #: the oldest absorbed packets are evicted first.
    MAX_HANDOFF_PACKETS = MAX_HANDOFF_PACKETS

    def __init__(
        self,
        sim: Simulator,
        config: HoneyfarmConfig,
        registry: PersonalityRegistry,
        inventory: AddressSpaceInventory,
        metrics: Optional[MetricRegistry] = None,
        session_idle_timeout: float = 60.0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.registry = registry
        self.inventory = inventory
        self.metrics = metrics or MetricRegistry()
        # One prefix, no per-address draw: every cold address answers as
        # the same personality, so the prefix lookup and the registry
        # chain run once, here.
        sole = None
        prefixes = inventory.prefixes
        if (
            len(prefixes) == 1
            and config.personality_mix is None
            and not config.deception.enabled
        ):
            sole = registry.get(config.personality_for(prefixes[0]))
        #: Live sessions and pending handoffs, by address value. A session
        #: expires ``session_idle_timeout`` after its last packet.
        self.sessions = AddressTable(session_idle_timeout, sole)
        self.handoffs: Dict[int, HandoffRecord] = {}
        handle = self.metrics.handle
        self._c_sessions_started = handle("ladder.sessions_started")
        self._c_sessions_expired = handle("ladder.sessions_expired")
        self._c_flows_seen = handle("ladder.flows_seen")
        self._c_promotions = handle("ladder.promotions")
        self._c_promotions_by_trigger = {
            name: handle(f"ladder.promotions.{name}") for name in TRIGGER_NAMES
        }
        self._c_demotions = handle("ladder.demotions")
        self._c_handoffs_completed = handle("ladder.handoffs_completed")
        self._c_handoffs_abandoned = handle("ladder.handoffs_abandoned")
        self._c_handoff_replayed = handle("ladder.handoff_packets_replayed")
        self._c_buffer_dropped = handle("ladder.handoff_buffer_dropped")
        self._handoff_latency = self.metrics.histogram("ladder.handoff_seconds")

    # ------------------------------------------------------------------ #
    # Per-packet path (called by the gateway for cold addresses)
    # ------------------------------------------------------------------ #

    def consider(self, packet: Packet, now: float) -> LadderVerdict:
        """Absorb ``packet`` into the emulator tier, or promote its flow."""
        row = self.session_row(packet.dst, now)
        session = self.sessions.session(row)
        state, flow_created = session.note(packet, now)
        if flow_created:
            self._c_flows_seen.increment()
        trigger = promotion_trigger(
            self.registry.catalog, session.personality, state, packet
        )
        if trigger is not None:
            self._promote(packet.dst, session, trigger, now)
            return LadderVerdict(promoted=True, trigger=trigger)
        replies = session.emulate(packet)
        if self.sessions.absorbed[row] > MAX_HANDOFF_PACKETS:
            # The chain keeps the most recent conversation context for
            # the replay; the packet it let go of is already answered.
            self._c_buffer_dropped.increment()
        return LadderVerdict(promoted=False, replies=replies)

    def personality_at(self, value: int) -> Personality:
        """The personality the cold address of value ``value`` answers
        as."""
        personality = self.sessions.sole
        if personality is None:
            personality = self.registry.get(
                self.config.personality_for_address(self.inventory.lookup(value), value)
            )
        return personality

    def session_row(self, value: int, now: float) -> int:
        """The row of the emulated session serving the address of value
        ``value``, opened at ``now`` if the address has none."""
        sessions = self.sessions
        row = sessions.index.get(value)
        if row is None:
            row = sessions.open(value, now, next(_stamps), self.personality_at(value))
            self._c_sessions_started.increment()
        return row

    def vm_bound(self, ip: int) -> None:
        """The gateway bound a VM over ``ip``. If the emulator tier was
        serving the address (a respawn after a host crash), the session
        stays under a new stamp, so no span verdict resolved against it
        holds."""
        sessions = self.sessions
        row = sessions.index.get(ip)
        if row is not None:
            sessions.stamp[row] = next(_stamps)

    def restamp(self) -> None:
        """Give every live session a new stamp: a new span lane trusts no
        verdict an earlier one wrote."""
        stamps = self.sessions.stamp
        for row in self.sessions.index.values():
            stamps[row] = next(_stamps)

    def _promote(
        self, ip: int, session: EmulatedSession, trigger: str, now: float
    ) -> None:
        stale = self.handoffs.pop(ip, None)
        if stale is not None:
            # A previous promotion for this address never met a running
            # VM (clone refused or still unbound); its state is stale.
            self._c_handoffs_abandoned.increment()
        handoff = HandoffRecord(
            ip=ip,
            created_at=now,
            trigger=trigger,
            # The one choke point every promotion passes through: handoff
            # replay (and everything downstream) only ever sees packets.
            buffered=session.buffered_packets(),
            flows=len(session.flows),
            payload_bytes=session.payload_bytes_total,
            banner=session.banner,
            buffer_dropped=session.buffer_dropped,
        )
        self.handoffs[ip] = handoff
        # Every span verdict resolved against the session names a stamp
        # no live session bears from here on.
        self.sessions.drop(ip)
        self._c_promotions.increment()
        self._c_promotions_by_trigger[trigger].increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now, "ladder", "promotion",
                ip=dotted(ip), trigger=trigger, buffered=len(handoff.buffered),
                flows=handoff.flows, banner=handoff.banner or "",
            )

    # ------------------------------------------------------------------ #
    # Handoff lifecycle (called by the gateway)
    # ------------------------------------------------------------------ #

    def take_handoff(self, ip: int) -> Optional[HandoffRecord]:
        """Claim the pending handoff for ``ip`` (the VM is ready)."""
        return self.handoffs.pop(ip, None)

    def handoff_complete(
        self, handoff: HandoffRecord, replayed: int, vm_id: int, now: float
    ) -> None:
        """Account one finished replay into a running VM."""
        self._c_handoffs_completed.increment()
        self._c_handoff_replayed.increment(replayed)
        latency = now - handoff.created_at
        self._handoff_latency.observe(latency)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now, "ladder", "handoff",
                ip=dotted(handoff.ip), vm_id=vm_id, trigger=handoff.trigger,
                packets=replayed, latency=latency,
            )

    def vm_retired(self, ip: int, cause: str) -> None:
        """The address fell back off the VM rung: demotion.

        Any handoff still waiting for that VM is abandoned (the chaos
        layer can fail a clone between promotion and readiness)."""
        abandoned = self.handoffs.pop(ip, None)
        if abandoned is not None:
            self._c_handoffs_abandoned.increment()
        self._c_demotions.increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "ladder", "demotion",
                ip=dotted(ip), cause=cause,
                abandoned_handoff=abandoned is not None,
            )

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def sweep(self, now: float) -> int:
        """Expire emulated sessions idle past the session timeout
        (piggybacks on the gateway's flow sweep). Visits only sessions
        old enough to be idle: the address table's creation buckets."""
        expired = len(self.sessions.expire_idle(now))
        if expired:
            self._c_sessions_expired.increment(expired)
        return expired

    @property
    def session_idle_timeout(self) -> float:
        return self.sessions.idle_timeout

    @property
    def live_sessions(self) -> int:
        return len(self.sessions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FidelityLadder sessions={len(self.sessions)}"
            f" pending_handoffs={len(self.handoffs)}>"
        )
