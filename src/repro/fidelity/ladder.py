"""The fidelity-ladder coordinator: sessions, promotion, demotion.

One :class:`FidelityLadder` sits beside the gateway (attached when
``HoneyfarmConfig.ladder``). The gateway consults it for every
packet addressed to a *cold* address — one with no live or cloning VM —
and the ladder either absorbs the packet into an emulated session
(returning the guest-faithful replies) or declares a promotion, in which
case the gateway falls through to its normal flash-clone dispatch with
the triggering packet queued for the new VM.

Sessions are rows of the gateway's
:class:`~repro.fidelity.emulator.AddressTable` (``sessions``, the same
table as ``gateway.addresses``), keyed by the address, a plain int like
every address inside the farm. An address the emulator tier serves costs
a row of typed columns, not objects; the per-packet lane handles it
through an :class:`~repro.fidelity.emulator.EmulatedSession` view. A
promotion keeps the row: the session's replay window waits on its chain
for the clone the promotion requested, and is either handed to that VM
when it is ready (:meth:`FidelityLadder.take_handoff`) or abandoned with
the clone (refused, failed, timed out or retired).

Accounting contract (see ``docs/FIDELITY.md``): packets absorbed by the
emulator are counted under ``gateway.emulated`` — a first-class bucket
of the packet-conservation ledger — and handoff replays of those same
packets into the promoted VM are counted under
``ladder.handoff_packets_replayed`` only, never ``gateway.delivered``,
so no packet is ever accounted twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.config import HoneyfarmConfig
from repro.fidelity.emulator import MAX_HANDOFF_PACKETS, AddressTable, EmulatedSession
from repro.fidelity.triggers import TRIGGER_NAMES, promotion_trigger
from repro.net.addr import AddressSpaceInventory, dotted
from repro.net.packet import Packet
from repro.obs import recorder as _obs
from repro.services.personality import PersonalityRegistry
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.vmm.vm import VirtualMachine

__all__ = ["FidelityLadder", "LadderVerdict"]


@dataclass
class LadderVerdict:
    """What the ladder decided about one packet."""

    promoted: bool
    trigger: Optional[str] = None
    replies: List[Packet] = field(default_factory=list)


class FidelityLadder:
    """See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        config: HoneyfarmConfig,
        registry: PersonalityRegistry,
        inventory: AddressSpaceInventory,
        sessions: AddressTable,
        metrics: Optional[MetricRegistry] = None,
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
        #: The gateway's address table, whose rows with a session stamp
        #: are the live sessions. A session expires the table's
        #: ``idle_timeout`` after its last packet.
        self.sessions = sessions
        sessions.answer_as(sole)
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
        session = EmulatedSession(self.sessions, row)
        state, flow_created = session.note(packet, now)
        if flow_created:
            self._c_flows_seen.increment()
        trigger = promotion_trigger(
            self.registry.catalog, session.personality, state, packet
        )
        if trigger is not None:
            self._promote(row, trigger, now)
            return LadderVerdict(promoted=True, trigger=trigger)
        replies = session.emulate(packet)
        if self.sessions.absorbed[row] > MAX_HANDOFF_PACKETS:
            # The chain keeps the most recent conversation context for
            # the replay; the packet it let go of is already answered.
            self._c_buffer_dropped.increment()
        return LadderVerdict(promoted=False, replies=replies)

    def session_row(self, value: int, now: float) -> int:
        """The row of the emulated session serving the address of value
        ``value``, opened at ``now`` if the address has none: the one
        place a cold address is given the personality it answers as."""
        sessions = self.sessions
        row = sessions.index.get(value)
        if row is None:
            personality = sessions.sole or self.registry.get(
                self.config.personality_for_address(self.inventory.lookup(value), value)
            )
            row = sessions.open(value, now, personality)
            self._c_sessions_started.increment()
        return row

    def _promote(self, row: int, trigger: str, now: float) -> None:
        sessions = self.sessions
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now, "ladder", "promotion",
                ip=dotted(sessions.keys[row]), trigger=trigger,
                buffered=min(sessions.absorbed[row], MAX_HANDOFF_PACKETS),
                flows=len(sessions.flows_of(row)), banner=sessions.banner[row] or "",
            )
        # Every span verdict resolved against the session names a stamp
        # no live session bears from here on.
        sessions.promote(row, TRIGGER_NAMES.index(trigger) + 1, now)
        self._c_promotions.increment()
        self._c_promotions_by_trigger[trigger].increment()

    # ------------------------------------------------------------------ #
    # Handoff lifecycle (called by the gateway)
    # ------------------------------------------------------------------ #

    def take_handoff(self, row: int) -> Tuple[List[Packet], str, float]:
        """Claim the handoff waiting on ``row`` (its VM is ready): the
        replay window as packets, oldest first, the trigger and the time
        of the promotion."""
        sessions = self.sessions
        handoff = sessions.buffered_packets(row)
        trigger = TRIGGER_NAMES[sessions.trigger[row] - 1]
        promoted_at = sessions.since[row]
        sessions.drop_replay(row)
        return handoff, trigger, promoted_at

    def handoff_complete(
        self, vm: "VirtualMachine", trigger: str, promoted_at: float, replayed: int
    ) -> None:
        """Account one finished replay into the running ``vm``."""
        self._c_handoffs_completed.increment()
        self._c_handoff_replayed.increment(replayed)
        now = self.sim.now
        latency = now - promoted_at
        self._handoff_latency.observe(latency)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now, "ladder", "handoff",
                ip=dotted(vm.ip), vm_id=vm.vm_id, trigger=trigger,
                packets=replayed, latency=latency,
            )

    def abandon_handoff(self, row: int) -> bool:
        """The clone a promotion requested will never take its handoff
        (refused, failed, timed out or retired): let go of the replay
        window waiting on ``row``. Returns whether one was waiting."""
        if not self.sessions.trigger[row]:
            return False
        self.sessions.drop_replay(row)
        self._c_handoffs_abandoned.increment()
        return True

    def vm_retired(self, ip: int, cause: str, row: Optional[int]) -> None:
        """The address fell back off the VM rung: demotion.

        ``row`` is the address's row when the retired VM was the one bound
        there, else None: a handoff still waiting for that VM is
        abandoned (the chaos layer can fail a clone between promotion and
        readiness)."""
        abandoned = row is not None and self.abandon_handoff(row)
        self._c_demotions.increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "ladder", "demotion",
                ip=dotted(ip), cause=cause, abandoned_handoff=abandoned,
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
    def live_sessions(self) -> int:
        stamps = self.sessions.stamp
        return sum(1 for row in self.sessions.index.values() if stamps[row])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FidelityLadder sessions={self.live_sessions}>"
