"""Shared machinery for closed-loop adversary agents.

An agent is an *external* actor: it injects packets into the farm
through the same front door the telescope workload uses and observes
exactly what a real attacker on the Internet would — the packets the
gateway lets out. The observation hook chain-wraps
``gateway.external_sink`` (the farm's existing escape collector keeps
seeing everything), so agents are plain observers with no privileged
view of farm internals.

Determinism: every decision fires from a simulator event and every
random draw comes from the agent's private seeded stream, so a given
(scenario seed, agent index) replays bit-identically — which is what
lets the conformance harness pin adversary verdicts in golden digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import dotted
from repro.net.packet import Packet, TcpFlags
from repro.obs import recorder as _obs
from repro.services.guest import InfectionRecord
from repro.sim.rand import RandomStream

__all__ = ["AdversaryAgent", "AdversaryReport", "CNC_PORT", "is_checkin"]

#: The C2 listener port bot check-ins target (ScanBehavior's default).
CNC_PORT = 6667


def is_checkin(packet: Packet) -> bool:
    """True for anything a C2 listener would log as a bot phoning home.

    The guest's beacon loop opens with a bare SYN and only sends the
    ``cnc:checkin:`` payload after a completed handshake — which never
    happens, because the agent doesn't answer. The SYN arriving at the
    listener port is already the containment evidence the attacker
    wants, so count it (and any payload-bearing check-in) directly.
    """
    if packet.payload.startswith("cnc:checkin:"):
        return True
    return (
        packet.is_tcp
        and packet.dst_port == CNC_PORT
        and bool(packet.flags & TcpFlags.SYN)
        and not packet.flags & TcpFlags.ACK
    )


@dataclass
class AdversaryReport:
    """What one adversary agent did and concluded — the unit the
    analysis layer, the oracles, and the benchmark all consume."""

    name: str
    kind: str
    tier: int
    start: float
    end: Optional[float] = None
    verdict: Optional[str] = None  # completed | aborted | incomplete
    abort_stage: Optional[str] = None
    tell_total: float = 0.0
    tells: Tuple[Tuple[str, float, str], ...] = ()
    probes_sent: int = 0
    replies_seen: int = 0
    captures: Tuple[Tuple[float, str], ...] = ()
    checkins_seen: int = 0
    stage2_pushed: int = 0
    lateral_infections: int = 0

    @property
    def dwell_time(self) -> Optional[float]:
        """Attacker-engagement window: first probe to terminal verdict."""
        if self.end is None:
            return None
        return self.end - self.start

    def summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "tier": self.tier,
            "verdict": self.verdict,
            "abort_stage": self.abort_stage,
            "tell_total": round(self.tell_total, 6),
            "tells": [list(t) for t in self.tells],
            "dwell_time": self.dwell_time,
            "probes_sent": self.probes_sent,
            "replies_seen": self.replies_seen,
            "captures": [list(c) for c in self.captures],
            "checkins_seen": self.checkins_seen,
            "stage2_pushed": self.stage2_pushed,
            "lateral_infections": self.lateral_infections,
        }


class AdversaryAgent:
    """Base class: sink wrapping, seeded injection, capture attribution.

    Subclasses schedule their decision events in :meth:`attach` (called
    before ``farm.run``) and fill in :attr:`report`.
    """

    kind = "agent"

    def __init__(
        self,
        farm: Honeyfarm,
        rng: RandomStream,
        source: int,
        targets: Tuple[int, ...],
        start: float,
        deadline: float,
        name: str,
        tier: int = 0,
    ) -> None:
        if not targets:
            raise ValueError(f"agent {name!r} needs at least one target")
        if deadline <= start:
            raise ValueError(
                f"agent {name!r} deadline {deadline!r} must be after its"
                f" start {start!r}"
            )
        self.farm = farm
        self.rng = rng
        self.source = source
        self.targets = tuple(targets)
        self.start = start
        self.deadline = deadline
        self.name = name
        self.report = AdversaryReport(
            name=name, kind=self.kind, tier=tier, start=start
        )
        #: Every (src, dst) pair this agent injected, for the
        #: containment-safety oracle's inbound-pair whitelist.
        self.injected_pairs: List[Tuple[str, str]] = []
        self._captures: List[Tuple[float, str]] = []
        self._terminal = False

    # -- wiring ----------------------------------------------------------- #

    def attach(self) -> None:
        """Wire observation hooks and schedule the campaign's events.

        Must run *after* the world has installed its own external sink
        (the chain preserves it) and *before* ``farm.run``.
        """
        inner: Optional[Callable[[Packet], None]] = self.farm.gateway.external_sink

        def observing_sink(packet: Packet) -> None:
            self._observe(packet)
            if inner is not None:
                inner(packet)

        self.farm.gateway.external_sink = observing_sink
        self.farm.add_infection_listener(self._on_infection)
        self.farm.sim.schedule_at(self.start, self._begin)
        self.farm.sim.schedule_at(self.deadline, self._finalize)
        self._schedule()

    def _schedule(self) -> None:
        """Subclass hook: schedule stage events (start/deadline are
        already on the clock)."""

    def _begin(self) -> None:
        """Subclass hook: the campaign's first action."""

    # -- plumbing --------------------------------------------------------- #

    def inject(self, packet: Packet) -> None:
        """Send one packet into the farm, bookkeeping for the oracles."""
        self.report.probes_sent += 1
        self.injected_pairs.append((dotted(packet.src), dotted(packet.dst)))
        self._emit(
            "inject", dst=dotted(packet.dst), protocol=packet.protocol,
            dst_port=packet.dst_port,
        )
        self.farm.inject(packet)

    def _observe(self, packet: Packet) -> None:
        """External packet left the farm; count it if it is for us."""
        if packet.dst == self.source:
            self.report.replies_seen += 1
            self.on_reply(packet)

    def on_reply(self, packet: Packet) -> None:
        """Subclass hook: one reply addressed to this agent."""

    def _on_infection(self, record: InfectionRecord) -> None:
        if record.source == self.source:
            self._captures.append((record.time, dotted(record.victim)))
            self._emit("capture", victim=dotted(record.victim))

    def _emit(self, event: str, **fields) -> None:
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.farm.sim.now, "adversary", event,
                agent=self.name, **fields,
            )

    def _count(self, name: str) -> None:
        self.farm.metrics.counter(f"adversary.{name}").increment()

    # -- terminal states -------------------------------------------------- #

    def conclude(self, verdict: str, abort_stage: Optional[str] = None) -> None:
        if self._terminal:
            return
        self._terminal = True
        self.report.end = self.farm.sim.now
        self.report.verdict = verdict
        self.report.abort_stage = abort_stage
        self.report.captures = tuple(self._captures)
        self._count(f"verdict_{verdict}")
        self._emit(
            "verdict", verdict=verdict, stage=abort_stage,
            tell_total=self.report.tell_total,
            captures=len(self._captures),
        )

    def _finalize(self) -> None:
        """Deadline backstop: every agent reaches a terminal verdict
        before the run ends, whatever the scenario's timing."""
        self.conclude("incomplete")
        # Captures recorded between an earlier verdict and the deadline
        # (lateral spread keeps running after a campaign concludes).
        self.report.captures = tuple(self._captures)
