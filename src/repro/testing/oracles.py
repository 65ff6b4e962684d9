"""Pluggable invariant oracles over differential-world observations.

Each oracle inspects the :class:`~repro.testing.worlds.WorldObservation`
map produced by one scenario's run through the world matrix and returns
:class:`Violation` records (empty list = invariant holds). Oracles never
raise on a violated invariant — a raise is an oracle bug, a returned
violation is a simulator bug — and they only read plain observation
data, so a violation can be serialized straight into a repro artifact.

Adding an oracle: subclass :class:`Oracle`, give it a unique ``name``,
implement ``check``, and register it (see ``default_registry`` and
``docs/TESTING.md``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.net.addr import IPAddress, Prefix
from repro.sim.batch import PacketColumns
from repro.testing.scenario import Scenario
from repro.testing.worlds import WorldObservation

__all__ = [
    "Oracle",
    "OracleRegistry",
    "Violation",
    "default_registry",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributable to a world (or cross-world)."""

    oracle: str
    world: str  # "" for cross-world violations
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "world": self.world,
            "message": self.message,
            "details": self.details,
        }

    def __str__(self) -> str:
        where = f" [{self.world}]" if self.world else ""
        return f"{self.oracle}{where}: {self.message}"


class Oracle:
    """Base class for invariants. ``name`` must be unique per registry."""

    name = "oracle"

    def check(
        self,
        scenario: Scenario,
        observations: Dict[str, WorldObservation],
        trace: PacketColumns,
    ) -> List[Violation]:
        raise NotImplementedError

    # Convenience for subclasses.
    def violation(self, world: str, message: str, **details: Any) -> Violation:
        return Violation(self.name, world, message, details)


def _farm_worlds(
    observations: Dict[str, WorldObservation]
) -> Iterator[WorldObservation]:
    for obs in observations.values():
        if obs.kind == "farm":
            yield obs


class PacketConservationOracle(Oracle):
    """Every inbound packet is delivered, refused, dropped-with-cause,
    or still pending — the gateway ledger balances in every world."""

    name = "packet-conservation"

    def check(self, scenario, observations, trace):
        violations = []
        for obs in _farm_worlds(observations):
            if obs.leaked != 0:
                violations.append(
                    self.violation(
                        obs.world,
                        f"packet ledger leaked {obs.leaked} packets",
                        packets_in=obs.packets_in,
                        delivered=obs.delivered,
                        refused=obs.refused,
                        dropped_by_cause=obs.dropped_by_cause,
                        still_pending=obs.still_pending,
                    )
                )
        return violations


class FrameLedgerOracle(Oracle):
    """Per-host memory frame accounting (used/free/shared refcounts)
    reconciles after the run."""

    name = "frame-ledger"

    def check(self, scenario, observations, trace):
        return [
            self.violation(obs.world, f"frame invariant violated: {obs.frame_error}")
            for obs in _farm_worlds(observations)
            if obs.frame_error is not None
        ]


class ContainmentSafetyOracle(Oracle):
    """Under any non-open policy, nothing honeypot-initiated escapes:
    the initiated-external counter stays zero and every packet that
    reached the external sink is a direct reply to an inbound trace
    packet (src/dst exactly swapped)."""

    name = "containment-safety"

    def check(self, scenario, observations, trace):
        violations = []
        # Observed packets name addresses as dotted quads.
        trace_pairs = {
            (str(IPAddress(key[0])), str(IPAddress(key[2]))) for key in set(trace.keys)
        }
        for obs in _farm_worlds(observations):
            if obs.containment == "open":
                continue
            # Adversary agents inject through the same front door the
            # trace uses; their probes are legitimate inbound traffic.
            inbound_pairs = trace_pairs | {
                tuple(pair) for pair in obs.adversary_injected_pairs
            }
            initiated = obs.counters.get("gateway.initiated_external_out", 0)
            if initiated != 0:
                violations.append(
                    self.violation(
                        obs.world,
                        f"{initiated} honeypot-initiated packets escaped under "
                        f"containment={obs.containment!r}",
                        initiated_external_out=initiated,
                    )
                )
            escapes = [
                key
                for key in obs.external_packets
                # A legitimate reply runs dst->src of some inbound packet.
                if (key[1], key[0]) not in inbound_pairs
            ]
            if escapes:
                violations.append(
                    self.violation(
                        obs.world,
                        f"{len(escapes)} external packets are not replies to "
                        "any inbound trace packet",
                        examples=[list(key) for key in escapes[:5]],
                    )
                )
        return violations


def _digest_diff(
    a: WorldObservation, b: WorldObservation
) -> Dict[str, Any]:
    """Compact description of how two guest-visible digests differ."""
    pkt_a, pkt_b = Counter(a.external_packets), Counter(b.external_packets)
    inf_a, inf_b = Counter(a.infections), Counter(b.infections)
    only_a = list((pkt_a - pkt_b).elements())
    only_b = list((pkt_b - pkt_a).elements())
    inf_only_a = list((inf_a - inf_b).elements())
    inf_only_b = list((inf_b - inf_a).elements())
    return {
        "external_only_in_" + a.world: [list(k) for k in only_a[:5]],
        "external_only_in_" + b.world: [list(k) for k in only_b[:5]],
        "external_delta": (len(only_a), len(only_b)),
        "infections_only_in_" + a.world: [list(k) for k in inf_only_a[:5]],
        "infections_only_in_" + b.world: [list(k) for k in inf_only_b[:5]],
        "infection_counts": (len(a.infections), len(b.infections)),
    }


class CloneEquivalenceOracle(Oracle):
    """Delta (flash-clone) virtualization is guest-invisible: the
    timing-free digest (external packet multiset + infection multiset)
    matches full-copy cloning on the same trace.

    Only claimed when the scenario is equivalence-eligible (roomy
    memory, no churn/faults/warm pool) and containment is feedback-free
    (drop-all / allow-dns): reflection feeds clone latency back into the
    in-farm epidemic, so timing differences legitimately change *which*
    in-farm infections occur.
    """

    name = "clone-equivalence"

    def check(self, scenario, observations, trace):
        if not scenario.equivalence_eligible:
            return []
        if scenario.containment not in ("drop-all", "allow-dns"):
            return []
        delta = observations.get("delta")
        fullcopy = observations.get("fullcopy")
        if delta is None or fullcopy is None:
            return []
        if delta.digest() == fullcopy.digest():
            return []
        return [
            self.violation(
                "",
                "delta and full-copy worlds diverged in guest-visible digest",
                **_digest_diff(delta, fullcopy),
            )
        ]


class SharingEquivalenceOracle(Oracle):
    """Content-based page sharing is an invisible ablation: with roomy
    memory (no pressure feedback) the sharing-flipped world matches the
    primary world *exactly* — counters, infections, and external
    packets, timing included.

    Fault events are excluded: placement selects hosts by free memory,
    sharing changes free memory, and a host crash turns that otherwise
    invisible placement difference into different VM casualties.
    """

    name = "sharing-equivalence"

    def check(self, scenario, observations, trace):
        if scenario.memory_profile != "roomy" or scenario.fault_events:
            return []
        delta = observations.get("delta")
        flipped = observations.get("sharing-flip")
        if delta is None or flipped is None:
            return []
        violations = []
        if delta.counters != flipped.counters:
            diff = {
                key: (delta.counters.get(key, 0), flipped.counters.get(key, 0))
                for key in set(delta.counters) | set(flipped.counters)
                if delta.counters.get(key, 0) != flipped.counters.get(key, 0)
            }
            violations.append(
                self.violation(
                    "",
                    "sharing flip changed metric counters under roomy memory",
                    counter_diff={k: list(v) for k, v in sorted(diff.items())},
                )
            )
        if delta.digest() != flipped.digest():
            violations.append(
                self.violation(
                    "",
                    "sharing flip changed the guest-visible digest",
                    **_digest_diff(delta, flipped),
                )
            )
        return violations


class LadderEquivalenceOracle(Oracle):
    """The fidelity ladder is guest-invisible: a promoted flow's replies
    (and the farm's captured infections) match the clone-always world on
    the same trace — the emulator tier answers byte-identically, and
    every would-infect packet promotes before the emulator can touch it.

    Gated like clone-equivalence, but tighter: only drop-all containment.
    Reflection feeds emulated stand-ins and clone timing back into the
    in-farm epidemic, and the ladder legitimately changes *when* clones
    happen — under drop-all none of that timing is guest-visible.
    """

    name = "ladder-equivalence"

    def check(self, scenario, observations, trace):
        if not scenario.equivalence_eligible:
            return []
        if scenario.containment != "drop-all":
            return []
        ladder = observations.get("ladder")
        delta = observations.get("delta")
        if ladder is None or delta is None:
            return []
        if ladder.digest() == delta.digest():
            return []
        return [
            self.violation(
                "",
                "ladder and clone-always worlds diverged in guest-visible "
                "digest",
                emulated=ladder.emulated,
                promotions=ladder.counters.get("ladder.promotions", 0),
                **_digest_diff(ladder, delta),
            )
        ]


class ClockMonotoneOracle(Oracle):
    """The simulation clock never runs backwards and always reaches the
    requested end time; recorded series and flight-recorder events are
    time-ordered within [0, end]."""

    name = "monotonic-clock"

    def check(self, scenario, observations, trace):
        violations = []
        for obs in _farm_worlds(observations):
            if obs.sim_now != obs.end_time:
                violations.append(
                    self.violation(
                        obs.world,
                        f"sim clock stopped at {obs.sim_now}, expected "
                        f"{obs.end_time}",
                    )
                )
            times = obs.series_times
            if any(b < a for a, b in zip(times, times[1:])):
                violations.append(
                    self.violation(obs.world, "live-VM series times went backwards")
                )
            if times and (times[0] < 0.0 or times[-1] > obs.end_time):
                violations.append(
                    self.violation(
                        obs.world,
                        f"series times outside [0, {obs.end_time}]: "
                        f"first={times[0]}, last={times[-1]}",
                    )
                )
            if not obs.event_times_monotone:
                violations.append(
                    self.violation(
                        obs.world, "flight-recorder event times went backwards"
                    )
                )
        return violations


class TraceConsistencyOracle(Oracle):
    """Flight-recorder event tallies agree with the metric counters they
    shadow (spawns, retirements, dispatch verdicts). Skipped when the
    recorder evicted events — tallies would under-count."""

    name = "trace-consistency"

    def check(self, scenario, observations, trace):
        violations = []
        for obs in _farm_worlds(observations):
            if obs.recorder_evicted:
                continue
            verdicts = obs.dispatch_verdicts
            pairs = [
                (
                    "dispatch delivered+flushed",
                    verdicts.get("delivered", 0) + verdicts.get("flushed", 0),
                    "gateway.delivered",
                ),
                ("dispatch stray", verdicts.get("stray", 0), "gateway.stray"),
                (
                    "dispatch emulated",
                    verdicts.get("emulated", 0),
                    "gateway.emulated",
                ),
                (
                    "dispatch ttl_expired",
                    verdicts.get("ttl_expired", 0),
                    "gateway.ttl_expired",
                ),
                (
                    "farm/vm_spawned events",
                    obs.event_counts.get(("farm", "vm_spawned"), 0),
                    "farm.vms_spawned",
                ),
                (
                    "farm/vm_retired events",
                    obs.event_counts.get(("farm", "vm_retired"), 0),
                    "farm.vms_reclaimed",
                ),
            ]
            for label, observed, counter in pairs:
                expected = obs.counters.get(counter, 0)
                if observed != expected:
                    violations.append(
                        self.violation(
                            obs.world,
                            f"{label} = {observed} but counter {counter} = "
                            f"{expected}",
                        )
                    )
        return violations


class ResponderFidelityOracle(Oracle):
    """The stateless-responder baseline sees every in-prefix trace
    packet, never captures anything, and upper-bounds the farm's
    generation-0 infections with its would-have-infected tally."""

    name = "responder-fidelity"

    def check(self, scenario, observations, trace):
        responder = observations.get("responder")
        if responder is None:
            return []
        violations = []
        prefix = Prefix.parse(scenario.prefix)
        covered = sum(1 for key in trace.keys if prefix.contains(IPAddress(key[2])))
        if responder.packets_seen != covered:
            violations.append(
                self.violation(
                    responder.world,
                    f"responder saw {responder.packets_seen} packets, trace "
                    f"carries {covered} in-prefix packets",
                )
            )
        if responder.replies_sent > responder.packets_seen:
            violations.append(
                self.violation(
                    responder.world,
                    f"responder sent {responder.replies_sent} replies for only "
                    f"{responder.packets_seen} packets",
                )
            )
        delta = observations.get("delta")
        if delta is not None:
            # The responder replays only the shared trace, so infections
            # sourced by adversary agents fall outside its bound.
            gen0 = (
                sum(1 for __, __, gen in delta.infections if gen == 0)
                - delta.adversary_gen0_infections
            )
            if gen0 > responder.would_have_infected:
                violations.append(
                    self.violation(
                        "",
                        f"farm captured {gen0} generation-0 infections but the "
                        f"responder only counted "
                        f"{responder.would_have_infected} exploit attempts",
                    )
                )
        return violations


class FingerprintBlindnessOracle(Oracle):
    """Adversary agents behave sanely in every farm world: each reaches
    a deterministic terminal verdict, a scanner that aborted during
    recon committed no malware (so it cannot have been captured), and
    flipping the deception defense never costs the farm its safety
    invariants (the flip world's packet ledger still balances).

    Deliberately *not* asserted: zero identity/timing tells under
    deception — a small target sample can legitimately draw one
    personality for every probed address."""

    name = "fingerprint-blindness"

    def check(self, scenario, observations, trace):
        violations = []
        for obs in _farm_worlds(observations):
            for report in obs.adversary_reports:
                if report["verdict"] is None:
                    violations.append(
                        self.violation(
                            obs.world,
                            f"adversary {report['name']} never reached a "
                            "terminal verdict",
                            report=report,
                        )
                    )
                if (
                    report["kind"] == "fingerprint"
                    and report["abort_stage"] == "recon"
                    and report["captures"]
                ):
                    violations.append(
                        self.violation(
                            obs.world,
                            f"scanner {report['name']} aborted at recon yet "
                            f"was captured {len(report['captures'])} times",
                            report=report,
                        )
                    )
        flip = observations.get("deception-flip")
        if flip is not None and flip.leaked != 0:
            violations.append(
                self.violation(
                    flip.world,
                    f"deception flip leaked {flip.leaked} packets from the "
                    "conservation ledger",
                    packets_in=flip.packets_in,
                    delivered=flip.delivered,
                    still_pending=flip.still_pending,
                )
            )
        return violations


class CampaignLedgerOracle(Oracle):
    """Botnet campaigns cannot smuggle C2 traffic past containment: in
    any adversary-bearing farm world under a non-open policy, no packet
    whose payload marks it as C2 (check-in beacon or staged payload
    reply) reaches the external sink, and the world's packet ledger
    still balances."""

    name = "campaign-ledger"

    _C2_MARKERS = ("cnc:", "stage:")

    def check(self, scenario, observations, trace):
        violations = []
        for obs in _farm_worlds(observations):
            if not obs.adversary_reports:
                continue
            if obs.leaked != 0:
                violations.append(
                    self.violation(
                        obs.world,
                        f"adversary world leaked {obs.leaked} packets from "
                        "the conservation ledger",
                    )
                )
            if obs.containment == "open":
                continue
            c2_escapes = [
                key for key in obs.external_packets
                if key[6].startswith(self._C2_MARKERS)
            ]
            if c2_escapes:
                violations.append(
                    self.violation(
                        obs.world,
                        f"{len(c2_escapes)} C2 packets escaped under "
                        f"containment={obs.containment!r}",
                        examples=[list(key) for key in c2_escapes[:5]],
                    )
                )
        return violations


class OracleRegistry:
    """Ordered, name-unique collection of oracles."""

    def __init__(self) -> None:
        self._oracles: Dict[str, Oracle] = {}

    def register(self, oracle: Oracle) -> Oracle:
        if oracle.name in self._oracles:
            raise ValueError(f"duplicate oracle name: {oracle.name!r}")
        self._oracles[oracle.name] = oracle
        return oracle

    def names(self) -> List[str]:
        return list(self._oracles)

    def __iter__(self) -> Iterator[Oracle]:
        return iter(self._oracles.values())

    def __len__(self) -> int:
        return len(self._oracles)

    def check_all(
        self,
        scenario: Scenario,
        observations: Dict[str, WorldObservation],
        trace: PacketColumns,
    ) -> List[Violation]:
        violations: List[Violation] = []
        for oracle in self:
            violations.extend(oracle.check(scenario, observations, trace))
        return violations


def default_registry() -> OracleRegistry:
    """The standard invariant suite, in check order."""
    registry = OracleRegistry()
    registry.register(PacketConservationOracle())
    registry.register(FrameLedgerOracle())
    registry.register(ContainmentSafetyOracle())
    registry.register(CloneEquivalenceOracle())
    registry.register(SharingEquivalenceOracle())
    registry.register(LadderEquivalenceOracle())
    registry.register(ClockMonotoneOracle())
    registry.register(TraceConsistencyOracle())
    registry.register(ResponderFidelityOracle())
    registry.register(FingerprintBlindnessOracle())
    registry.register(CampaignLedgerOracle())
    return registry
