"""Build and run one scenario through one configured *world*.

A world is a full farm (clone mode x containment x content sharing) or
the stateless-responder baseline, driven by the scenario's shared packet
trace. Running a world yields a :class:`WorldObservation` — plain data
only (counters, digests, ledgers, recorder tallies), never live farm
objects — so oracles compare observations without keeping simulation
state alive, and observations serialize into failure artifacts.

The guest-visible *digest* is deliberately timing-free: the multiset of
packets the outside world received (addresses, ports, flags, payloads)
plus the multiset of infections (victim, worm, generation). Clone modes
legitimately differ in latency; the paper's claim is that the attacker
sees the same *content*, which is exactly what the digest captures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.adversary.base import AdversaryAgent
from repro.adversary.botnet import BotnetCampaign
from repro.adversary.fingerprint import FingerprintScanner
from repro.baselines.responder import StatelessResponder
from repro.core.federation import FederatedHoneyfarm
from repro.core.honeyfarm import Honeyfarm
from repro.core.intershard import InterShardConfig
from repro.core.ledger import packet_ledger
from repro.faults.injectors import ChaosController
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.obs import FlightRecorder, install, uninstall
from repro.services.personality import default_registry
from repro.sim.batch import PacketColumns, TraceRecord
from repro.sim.rand import SeedSequence
from repro.testing.scenario import Scenario
from repro.workloads.trace import replay_into_farm
from repro.workloads.worms import KNOWN_WORMS

__all__ = [
    "COOLDOWN_SECONDS",
    "WorldObservation",
    "WorldSpec",
    "run_world",
    "world_matrix",
]

#: Simulated seconds every world runs past the trace window, so clones
#: in flight at the window's edge finish in every clone mode (full-copy
#: is the slowest at ~1.1 s) and their queued packets flush before the
#: worlds' observations are compared.
COOLDOWN_SECONDS = 5.0

#: In-farm scan-rate throttle for captured worms (simulation-budget
#: knob, mirrors the chaos drill; containment behaviour is
#: rate-independent).
IN_FARM_SCAN_RATE = 2.0

#: Cross-shard hop latency for the federation world: generous relative
#: to scenario durations so each run exercises several lockstep epochs
#: without dominating the packet timings the digest ignores anyway.
FEDERATION_LATENCY = 0.5

#: A timing-free packet identity: (src, dst, protocol, src_port,
#: dst_port, flags, payload).
PacketKey = Tuple[str, str, int, int, int, int, str]


@dataclass(frozen=True)
class WorldSpec:
    """One column of the differential matrix.

    ``containment``/``content_sharing`` of None inherit the scenario's
    own values, so a spec like ``WorldSpec("fullcopy",
    clone_mode="full-copy")`` differs from the primary world in exactly
    one dimension.
    """

    name: str
    kind: str = "farm"  # "farm" | "responder" | "federation"
    clone_mode: str = "flash"
    containment: Optional[str] = None
    content_sharing: Optional[bool] = None
    ladder: bool = False
    #: Feed the trace through the batched arrival stream
    #: (:class:`~repro.sim.batch.PacketArrivalStream`) instead of one
    #: scheduled event per packet. The batched loop is contractually
    #: bit-identical, so a batched world must digest-match its
    #: per-event siblings — running one world batched keeps the whole
    #: conformance matrix as a standing cross-check of that contract.
    batched: bool = False
    #: None inherits the scenario's ``deception`` flag; True/False force
    #: the deception arm, so the flip world differs from the primary in
    #: exactly the personality/jitter randomization.
    deception: Optional[bool] = None


def world_matrix(scenario: Scenario) -> List[WorldSpec]:
    """The default matrix: the scenario's primary delta world (driven
    through the batched event loop — see :attr:`WorldSpec.batched`), its
    sharing flip, its full-copy ablation, one alternate containment
    policy (so every run diffs >= 2 policies), the fidelity-ladder
    variant, and the responder baseline."""
    alternate = "reflect" if scenario.containment == "drop-all" else "drop-all"
    specs = [
        WorldSpec("delta", batched=True),
        WorldSpec("sharing-flip", content_sharing=not scenario.content_sharing),
        WorldSpec("fullcopy", clone_mode="full-copy"),
        WorldSpec(f"alt-{alternate}", containment=alternate),
        WorldSpec("ladder", ladder=True),
    ]
    if scenario.adversaries or scenario.deception:
        # Ablate the deception defense whenever it matters: adversary
        # verdicts may legitimately differ across the flip, but the
        # containment/conservation oracles must hold on both sides.
        specs.append(WorldSpec("deception-flip", deception=not scenario.deception))
    specs.append(WorldSpec("responder", kind="responder"))
    return specs


@dataclass
class WorldObservation:
    """Everything the oracles may look at after one world's run."""

    world: str
    kind: str
    clone_mode: str
    containment: str
    content_sharing: bool
    sim_now: float = 0.0
    end_time: float = 0.0
    live_vms: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Sorted multiset of (victim, worm, generation).
    infections: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Sorted multiset of PacketKey for packets that left the farm.
    external_packets: List[PacketKey] = field(default_factory=list)
    #: farm.live_vms_series sample times (clock-monotonicity evidence).
    series_times: List[float] = field(default_factory=list)
    #: Flight-recorder (subsystem, event) tallies.
    event_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Flight-recorder gateway dispatch verdict tallies.
    dispatch_verdicts: Dict[str, int] = field(default_factory=dict)
    event_times_monotone: bool = True
    recorder_evicted: int = 0
    frame_error: Optional[str] = None
    pressure_evictions: int = 0
    # Packet-conservation ledger (farm worlds): the keys of
    # ``PacketLedger.as_dict()``.
    packets_in: int = 0
    delivered: int = 0
    refused: int = 0
    dropped_by_cause: Dict[str, int] = field(default_factory=dict)
    still_pending: int = 0
    leaked: int = 0
    emulated: int = 0
    # Responder-only tallies.
    packets_seen: int = 0
    replies_sent: int = 0
    would_have_infected: int = 0
    # Adversary-agent observations (farm worlds with scenario adversaries).
    deception: bool = False
    adversary_reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Sorted (src, dst) pairs the agents injected — legitimate inbound
    #: traffic the containment-safety oracle must whitelist.
    adversary_injected_pairs: List[Tuple[str, str]] = field(default_factory=list)
    #: Generation-0 infections sourced by agents (not the shared trace),
    #: for the responder-fidelity bound.
    adversary_gen0_infections: int = 0

    def digest(self) -> Tuple[Tuple[PacketKey, ...], Tuple[Tuple[str, str, int], ...]]:
        """The guest-visible observation: what left the farm plus what
        was captured, timing excluded."""
        return (tuple(self.external_packets), tuple(self.infections))

    def summary(self) -> Dict[str, Any]:
        """JSON-ready condensed view for failure artifacts."""
        return {
            "world": self.world,
            "kind": self.kind,
            "clone_mode": self.clone_mode,
            "containment": self.containment,
            "content_sharing": self.content_sharing,
            "packets_in": self.packets_in,
            "delivered": self.delivered,
            "leaked": self.leaked,
            "infections": len(self.infections),
            "external_packets": len(self.external_packets),
            "live_vms": self.live_vms,
            "pressure_evictions": self.pressure_evictions,
            "frame_error": self.frame_error,
        }


def _packet_key(packet) -> PacketKey:
    return (
        str(packet.src),
        str(packet.dst),
        packet.protocol,
        packet.src_port,
        packet.dst_port,
        int(packet.flags) if packet.is_tcp else 0,
        packet.payload,
    )


def run_world(
    scenario: Scenario,
    spec: WorldSpec,
    trace: Optional[PacketColumns] = None,
    recorder_capacity: int = 400_000,
) -> WorldObservation:
    """Execute ``scenario`` through the world described by ``spec``."""
    if trace is None:
        trace = scenario.build_trace()
    if spec.kind == "responder":
        return _run_responder(scenario, spec, trace)
    if spec.kind == "federation":
        return _run_federation(scenario, spec, trace)
    return _run_farm(scenario, spec, trace, recorder_capacity)


def _run_farm(
    scenario: Scenario,
    spec: WorldSpec,
    trace: PacketColumns,
    recorder_capacity: int,
) -> WorldObservation:
    config = scenario.farm_config(
        clone_mode=spec.clone_mode,
        containment=spec.containment,
        content_sharing=spec.content_sharing,
        ladder=spec.ladder,
        deception=spec.deception,
    )
    farm = Honeyfarm(config)
    dns = farm.config.dns_address()
    for worm in KNOWN_WORMS.values():
        throttled = worm.with_scan_rate(min(worm.scan_rate, IN_FARM_SCAN_RATE))
        farm.register_worm(throttled.behavior(dns))

    escaped: List[PacketKey] = []
    farm.gateway.external_sink = lambda packet: escaped.append(_packet_key(packet))

    # Adversary agents chain-wrap the sink just installed, so the
    # escaped collector keeps seeing every egress packet.
    agents = _build_adversaries(scenario, farm)
    for agent in agents:
        agent.attach()

    plan = scenario.fault_plan()
    controller = ChaosController(farm, plan) if plan else None

    end_time = scenario.duration + COOLDOWN_SECONDS
    recorder = FlightRecorder(capacity=recorder_capacity)
    install(recorder)
    try:
        replay_into_farm(farm, trace, batched=spec.batched)
        if controller is not None:
            controller.start()
        farm.run(until=end_time)
    finally:
        uninstall()

    obs = WorldObservation(
        world=spec.name,
        kind="farm",
        clone_mode=config.clone_mode,
        containment=config.containment,
        content_sharing=config.content_sharing,
        sim_now=farm.sim.now,
        end_time=end_time,
        live_vms=farm.live_vms,
        counters=dict(farm.metrics.counters()),
    )
    obs.infections = sorted(
        (str(r.victim), r.worm_name, r.generation) for r in farm.infections
    )
    obs.external_packets = sorted(escaped)
    obs.series_times = list(farm.metrics.series("farm.live_vms_series").times)

    event_counts: Counter = Counter()
    verdicts: Counter = Counter()
    last_t = float("-inf")
    monotone = True
    for t, __, subsystem, event, fields in recorder.events:
        if t < last_t:
            monotone = False
        last_t = t
        event_counts[(subsystem, event)] += 1
        if subsystem == "gateway" and event == "dispatch":
            verdicts[fields.get("verdict", "?")] += 1
    obs.event_counts = dict(event_counts)
    obs.dispatch_verdicts = dict(verdicts)
    obs.event_times_monotone = monotone
    obs.recorder_evicted = recorder.evicted

    try:
        for host in farm.hosts:
            host.memory.check_frame_invariant()
    except Exception as exc:  # the oracle reports, never raises
        obs.frame_error = f"{type(exc).__name__}: {exc}"

    obs.deception = config.deception.enabled
    obs.adversary_reports = [agent.report.summary() for agent in agents]
    obs.adversary_injected_pairs = sorted(
        {pair for agent in agents for pair in agent.injected_pairs}
    )
    sources = {agent.source for agent in agents}
    obs.adversary_gen0_infections = sum(
        1 for r in farm.infections
        if r.generation == 0 and r.source in sources
    )

    obs.pressure_evictions = obs.counters.get("farm.pressure_evictions", 0)
    vars(obs).update(packet_ledger(farm).as_dict())
    return obs


def _build_adversaries(scenario: Scenario, farm: Honeyfarm) -> List[AdversaryAgent]:
    """Instantiate the scenario's adversary agents against one farm.

    Everything — sources, targets, per-agent rng — derives from the
    scenario alone, so every farm world faces the identical campaign.
    """
    if not scenario.adversaries:
        return []
    seeds = SeedSequence(scenario.seed).spawn("adversary")
    prefix = Prefix.parse(scenario.prefix)
    # Inside the run window so the deadline backstop's terminal verdict
    # lands before the sim stops.
    deadline = scenario.duration + COOLDOWN_SECONDS - 0.5
    agents: List[AdversaryAgent] = []
    for i, spec in enumerate(scenario.adversaries):
        step = max(1, scenario.address_count // (spec.num_targets + 1))
        targets = tuple(
            prefix.address_at(1 + j * step) for j in range(spec.num_targets)
        )
        common = dict(
            farm=farm,
            rng=seeds.stream(f"agent-{i}"),
            source=IPAddress.parse(f"198.51.100.{10 + i}"),
            targets=targets,
            start=spec.start,
            deadline=deadline,
            name=f"adv-{i}-{spec.kind}",
        )
        if spec.kind == "fingerprint":
            agents.append(
                FingerprintScanner(tier=spec.tier, worm=spec.worm, **common)
            )
        else:
            agents.append(BotnetCampaign(worm=spec.worm, **common))
    return agents


def _run_federation(
    scenario: Scenario, spec: WorldSpec, trace: PacketColumns
) -> WorldObservation:
    """Run the scenario through a two-shard interlinked federation.

    The scenario's prefix splits into two half-shards, each owned by its
    own :class:`~repro.core.intershard.ShardRunner`, with the shared
    trace routed record-by-record to the owning shard. Not part of the
    default matrix (cross-shard hop latency legitimately shifts packet
    timings, and the private per-shard clocks would trip the recorder's
    global-monotonicity oracle), but differential drills can pit it
    against the single-farm worlds on the timing-free digest.
    """
    whole = Prefix.parse(scenario.prefix)
    if whole.length > 30:
        raise ValueError(f"prefix {whole} too small to split into shards")
    halves = (
        Prefix(whole.first, whole.length + 1),
        Prefix(whole.first.offset(whole.size // 2), whole.length + 1),
    )
    base = scenario.farm_config(
        clone_mode=spec.clone_mode,
        containment=spec.containment,
        content_sharing=spec.content_sharing,
        ladder=spec.ladder,
    )
    configs = [
        replace(base, prefixes=(str(half),), seed=base.seed + shard)
        for shard, half in enumerate(halves)
    ]
    worms = tuple(
        (name, min(worm.scan_rate, IN_FARM_SCAN_RATE))
        for name, worm in sorted(KNOWN_WORMS.items())
    )
    federation = FederatedHoneyfarm(
        configs,
        interlink=InterShardConfig(latency_seconds=FEDERATION_LATENCY),
        worms=worms,
    )

    escaped: List[PacketKey] = []
    for member in federation.members:
        member.gateway.external_sink = (
            lambda packet: escaped.append(_packet_key(packet))
        )

    shard_records: List[List[TraceRecord]] = [[], []]
    for record in trace:
        dst = IPAddress.parse(record.dst)
        for shard, half in enumerate(halves):
            if half.contains(dst):
                shard_records[shard].append(record)
                break
    for shard, records in enumerate(shard_records):
        federation.attach_shard_records(shard, records, batched=spec.batched)

    end_time = scenario.duration + COOLDOWN_SECONDS
    federation.run(until=end_time)

    result = federation.result()
    obs = WorldObservation(
        world=spec.name,
        kind="federation",
        clone_mode=base.clone_mode,
        containment=base.containment,
        content_sharing=base.content_sharing,
        sim_now=federation.now,
        end_time=end_time,
        live_vms=federation.live_vms,
        counters=result.aggregate_counters(),
    )
    obs.infections = sorted(
        (victim, worm, generation)
        for __, victim, __, worm, generation in result.infections()
    )
    obs.external_packets = sorted(escaped)
    try:
        result.assert_packet_conservation()
    except AssertionError as exc:  # the oracle reports, never raises
        obs.frame_error = f"{type(exc).__name__}: {exc}"
    vars(obs).update(result.ledger().as_dict())
    obs.pressure_evictions = obs.counters.get("farm.pressure_evictions", 0)
    return obs


def _run_responder(
    scenario: Scenario, spec: WorldSpec, trace: PacketColumns
) -> WorldObservation:
    inventory = AddressSpaceInventory([Prefix.parse(scenario.prefix)])
    # Same per-address personality assignment as the farm worlds, so the
    # responder is a fidelity baseline, not a different population.
    config = scenario.farm_config()
    prefix = Prefix.parse(scenario.prefix)
    responder = StatelessResponder(
        inventory,
        default_registry(),
        personality_for=lambda addr: config.personality_for_address(prefix, addr),
    )
    replies: List[PacketKey] = []
    for record in trace:
        for reply in responder.handle_packet(record.to_packet()):
            replies.append(_packet_key(reply))
    return WorldObservation(
        world=spec.name,
        kind="responder",
        clone_mode="none",
        containment="none",
        content_sharing=False,
        sim_now=scenario.duration,
        end_time=scenario.duration,
        external_packets=sorted(replies),
        packets_seen=responder.packets_seen,
        replies_sent=responder.replies_sent,
        would_have_infected=responder.would_have_infected,
    )
