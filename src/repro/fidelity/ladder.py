"""The fidelity-ladder coordinator: sessions, promotion, demotion.

One :class:`FidelityLadder` sits beside the gateway (attached when
``HoneyfarmConfig.ladder``). The gateway consults it for every
packet addressed to a *cold* address — one with no live or cloning VM —
and the ladder either absorbs the packet into an emulated session
(returning the guest-faithful replies) or declares a promotion, in which
case the gateway falls through to its normal flash-clone dispatch with
the triggering packet queued for the new VM.

Sessions and pending handoffs are keyed by the address *value* (an
:class:`~repro.net.addr.IPAddress`'s ``.value``): the span lane resolves
from a trace row's ints, and keys on them without building an address
object per flow. The hooks the gateway calls with a VM's address
(``vm_bound``, ``take_handoff``, ``vm_retired``) take the ``IPAddress``
and key on its value.

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
from repro.fidelity.emulator import EmulatedSession
from repro.fidelity.handoff import HandoffRecord
from repro.fidelity.triggers import TRIGGER_NAMES, promotion_trigger
from repro.net.addr import AddressSpaceInventory, IPAddress
from repro.net.packet import Packet
from repro.obs import recorder as _obs
from repro.services.personality import Personality, PersonalityRegistry
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricRegistry

__all__ = ["FidelityLadder", "LadderVerdict"]

#: Session stamps (:class:`EmulatedSession`), unique in the process: a
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
    MAX_HANDOFF_PACKETS = 64

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
        self.session_idle_timeout = session_idle_timeout
        # One prefix, no per-address draw: every cold address answers as
        # the same personality, so the prefix lookup and the registry
        # chain run once, here.
        self._sole_personality = None
        prefixes = inventory.prefixes
        if (
            len(prefixes) == 1
            and config.personality_mix is None
            and not config.deception.enabled
        ):
            self._sole_personality = registry.get(config.personality_for(prefixes[0]))
        #: Live sessions and pending handoffs, by address value.
        self.sessions: Dict[int, EmulatedSession] = {}
        self.handoffs: Dict[int, HandoffRecord] = {}
        # Provable lower bound on min(session.last_seen) over live
        # sessions: lets sweep() skip its full scan whenever nothing can
        # possibly have expired. Sound because last_seen only increases
        # and session creators push the floor down to their timestamp.
        self._session_floor = float("inf")
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
        session = self.session_at(packet.dst.value, now)
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
        self._buffer(session, packet)
        return LadderVerdict(promoted=False, replies=replies)

    def personality_at(self, value: int) -> Personality:
        """The personality the cold address of value ``value`` answers
        as. Only the per-address draw (several prefixes, a personality
        mix, deception) builds an :class:`IPAddress` for it."""
        personality = self._sole_personality
        if personality is None:
            ip = IPAddress(value)
            personality = self.registry.get(
                self.config.personality_for_address(self.inventory.lookup(ip), ip)
            )
        return personality

    def session_at(self, value: int, now: float) -> EmulatedSession:
        """The emulated session serving the address of value ``value``,
        opened at ``now`` if the address has none."""
        session = self.sessions.get(value)
        if session is None:
            session = self.sessions[value] = EmulatedSession(
                self.personality_at(value), now, next(_stamps)
            )
            self._c_sessions_started.increment()
            if now < self._session_floor:
                self._session_floor = now
        return session

    def _buffer(self, session: EmulatedSession, packet: Packet) -> None:
        if len(session.buffered) >= self.MAX_HANDOFF_PACKETS:
            # Keep the most recent conversation context for the replay;
            # the evicted prefix is already fully answered.
            session.evict_oldest()
            self._c_buffer_dropped.increment()
        session.hold(packet)

    def vm_bound(self, ip: IPAddress) -> None:
        """The gateway bound a VM over ``ip``. If the emulator tier was
        serving the address (a respawn after a host crash), the session
        stays under a new stamp, so no span verdict resolved against it
        holds."""
        session = self.sessions.get(ip.value)
        if session is not None:
            session.stamp = next(_stamps)

    def restamp(self) -> None:
        """Give every live session a new stamp: a new span lane trusts no
        verdict an earlier one wrote."""
        for session in self.sessions.values():
            session.stamp = next(_stamps)

    def _promote(
        self, ip: IPAddress, session: EmulatedSession, trigger: str, now: float
    ) -> None:
        value = ip.value
        stale = self.handoffs.pop(value, None)
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
        self.handoffs[value] = handoff
        # Every span verdict resolved against the session names a stamp
        # no live session bears from here on.
        del self.sessions[value]
        self._c_promotions.increment()
        self._c_promotions_by_trigger[trigger].increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now, "ladder", "promotion",
                ip=str(ip), trigger=trigger, buffered=len(handoff.buffered),
                flows=handoff.flows, banner=handoff.banner or "",
            )

    # ------------------------------------------------------------------ #
    # Handoff lifecycle (called by the gateway)
    # ------------------------------------------------------------------ #

    def take_handoff(self, ip: IPAddress) -> Optional[HandoffRecord]:
        """Claim the pending handoff for ``ip`` (the VM is ready)."""
        return self.handoffs.pop(ip.value, None)

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
                ip=str(handoff.ip), vm_id=vm_id, trigger=handoff.trigger,
                packets=replayed, latency=latency,
            )

    def vm_retired(self, ip: IPAddress, cause: str) -> None:
        """The address fell back off the VM rung: demotion.

        Any handoff still waiting for that VM is abandoned (the chaos
        layer can fail a clone between promotion and readiness)."""
        abandoned = self.handoffs.pop(ip.value, None)
        if abandoned is not None:
            self._c_handoffs_abandoned.increment()
        self._c_demotions.increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "ladder", "demotion",
                ip=str(ip), cause=cause,
                abandoned_handoff=abandoned is not None,
            )

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def sweep(self, now: float) -> int:
        """Expire emulated sessions idle past the session timeout
        (piggybacks on the gateway's flow sweep).

        O(1) when the floor proves no session can have expired (the
        common case between bursts); otherwise one scan that also
        recomputes the exact floor."""
        timeout = self.session_idle_timeout
        if now - self._session_floor <= timeout:
            return 0
        expired = []
        floor = float("inf")
        for value, session in self.sessions.items():
            last_seen = session.last_seen
            if now - last_seen > timeout:
                expired.append(value)
            elif last_seen < floor:
                floor = last_seen
        self._session_floor = floor
        for value in expired:
            del self.sessions[value]
        if expired:
            self._c_sessions_expired.increment(len(expired))
        return len(expired)

    @property
    def live_sessions(self) -> int:
        return len(self.sessions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FidelityLadder sessions={len(self.sessions)}"
            f" pending_handoffs={len(self.handoffs)}>"
        )
