"""Randomized, serializable, bit-identically-replayable scenarios.

A :class:`Scenario` is the unit of differential testing: a frozen
dataclass of configuration knobs (address-space size, cluster shape,
memory regime, containment, workload mix, fault events) from which
*everything else is derived deterministically* — the farm config for any
world, the packet trace that drives every world, and the fault plan.
Two processes given the same scenario JSON produce byte-identical runs.

:class:`ScenarioGenerator` synthesizes scenarios from a single root
seed, using the repo's named-stream :class:`~repro.sim.rand.SeedSequence`
so scenario ``i`` is independent of how many scenarios were drawn before
it.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass, field, replace
from math import log
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import DeceptionConfig, HoneyfarmConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.net.addr import Prefix
from repro.net.packet import PROTO_UDP
from repro.sim.batch import ArrivalKey, PacketColumns
from repro.sim.rand import RandomStream, SeedSequence, randbelow
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload, random_external_address
from repro.workloads.worms import KNOWN_WORMS

__all__ = ["AdversarySpec", "WormWave", "Scenario", "ScenarioGenerator"]

#: Adversary agent kinds a scenario may schedule.
ADVERSARY_KINDS = ("fingerprint", "botnet")

#: Containment policies a scenario may select for its primary worlds.
SCENARIO_CONTAINMENTS = ("drop-all", "allow-dns", "reflect", "open")

#: Gap between a worm wave's connection-opening SYN and its exploit
#: payload. The waves' own value: the telescope generator's burst model
#: uses ``EXPLOIT_PAYLOAD_DELAY`` (0.4 s); goldens pin both.
_EXPLOIT_PAYLOAD_DELAY = 0.3


@dataclass(frozen=True)
class WormWave:
    """One externally-driven worm wave: ``sources`` infected Internet
    hosts each scanning the dark space at ``rate`` scans/s over
    ``[start, start + duration)``."""

    worm: str
    start: float
    duration: float
    sources: int = 1
    rate: float = 2.0

    def __post_init__(self) -> None:
        if self.worm not in KNOWN_WORMS:
            raise ValueError(f"unknown worm {self.worm!r}; known: {sorted(KNOWN_WORMS)}")
        if self.start < 0:
            raise ValueError(f"wave start must be >= 0: {self.start!r}")
        if self.duration <= 0:
            raise ValueError(f"wave duration must be positive: {self.duration!r}")
        if self.sources <= 0:
            raise ValueError(f"wave sources must be positive: {self.sources!r}")
        if self.rate <= 0:
            raise ValueError(f"wave rate must be positive: {self.rate!r}")


@dataclass(frozen=True)
class AdversarySpec:
    """One closed-loop adversary agent attached to every farm world.

    ``kind`` selects the agent class
    (:class:`~repro.adversary.fingerprint.FingerprintScanner` or
    :class:`~repro.adversary.botnet.BotnetCampaign`); ``tier`` is the
    scanner's sophistication and ignored for botnets."""

    kind: str
    start: float = 0.5
    tier: int = 0
    num_targets: int = 4
    worm: str = "slammer"

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.start < 0:
            raise ValueError(f"adversary start must be >= 0: {self.start!r}")
        if not (0 <= self.tier <= 3):
            raise ValueError(f"adversary tier must be in [0, 3]: {self.tier!r}")
        if self.num_targets < 3:
            # Identity/timing tells need >= 3 probed addresses.
            raise ValueError(
                f"adversary num_targets must be >= 3: {self.num_targets!r}"
            )
        if self.worm not in KNOWN_WORMS:
            raise ValueError(f"unknown worm {self.worm!r}")


@dataclass(frozen=True)
class Scenario:
    """One randomized differential-testing scenario. See module docstring.

    Attributes
    ----------
    seed:
        Root seed: farm seed and the root of every derived stream
        (telescope arrivals, worm-wave schedules, fault-plan jitter).
    prefix_bits:
        Dark-space size as a prefix length on ``10.16.0.0`` (24 = 256
        addresses ... 28 = 16 addresses).
    duration:
        Trace-generation window in simulated seconds. Worlds run for
        ``duration`` plus the runner's cool-down so in-flight clones
        finish in every clone mode before observations are compared.
    memory_profile:
        ``roomy`` sizes each host to hold a full-copy clone of every
        dark address (equivalence claims apply); ``tight`` sizes hosts
        to roughly a third of that and arms the pressure policy (the
        conservation and safety oracles still apply).
    churn:
        When True, the idle timeout is a quarter of the duration so
        reclamation races the workload; when False it is ten times the
        duration so no VM is reclaimed mid-run.
    fault_events:
        JSON dicts in the :class:`~repro.faults.plan.FaultSpec` schema
        (validated eagerly); scheduled by a
        :class:`~repro.faults.injectors.ChaosController` in every farm
        world.
    """

    seed: int
    prefix_bits: int = 24
    duration: float = 10.0
    num_hosts: int = 1
    vm_image_mb: int = 8
    containment: str = "drop-all"
    content_sharing: bool = True
    warm_pool_size: int = 0
    pending_timeout: Optional[float] = None
    memory_profile: str = "roomy"
    churn: bool = False
    telescope_rate: float = 8.0
    exploit_fraction: float = 0.35
    max_packets: int = 400
    worm_waves: Tuple[WormWave, ...] = ()
    fault_events: Tuple[Dict[str, Any], ...] = ()
    adversaries: Tuple[AdversarySpec, ...] = ()
    deception: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if not (16 <= self.prefix_bits <= 28):
            raise ValueError(f"prefix_bits must be in [16, 28]: {self.prefix_bits!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration!r}")
        if self.num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive: {self.num_hosts!r}")
        if self.vm_image_mb <= 0:
            raise ValueError(f"vm_image_mb must be positive: {self.vm_image_mb!r}")
        if self.containment not in SCENARIO_CONTAINMENTS:
            raise ValueError(f"unknown containment {self.containment!r}")
        if self.memory_profile not in ("roomy", "tight"):
            raise ValueError(f"memory_profile must be roomy|tight: {self.memory_profile!r}")
        if self.warm_pool_size < 0:
            raise ValueError(f"warm_pool_size must be >= 0: {self.warm_pool_size!r}")
        if self.telescope_rate <= 0:
            raise ValueError(f"telescope_rate must be positive: {self.telescope_rate!r}")
        if not (0.0 <= self.exploit_fraction <= 1.0):
            raise ValueError(f"exploit_fraction must be in [0, 1]: {self.exploit_fraction!r}")
        if self.max_packets <= 0:
            raise ValueError(f"max_packets must be positive: {self.max_packets!r}")
        object.__setattr__(self, "worm_waves", tuple(
            w if isinstance(w, WormWave) else WormWave(**w) for w in self.worm_waves
        ))
        object.__setattr__(self, "fault_events", tuple(
            dict(e) for e in self.fault_events
        ))
        object.__setattr__(self, "adversaries", tuple(
            a if isinstance(a, AdversarySpec) else AdversarySpec(**a)
            for a in self.adversaries
        ))
        for event in self.fault_events:
            FaultSpec.from_dict(event)  # validate eagerly; raises on bad specs

    # ------------------------------------------------------------------ #
    # Derived configuration
    # ------------------------------------------------------------------ #

    @property
    def prefix(self) -> str:
        return f"10.16.0.0/{self.prefix_bits}"

    @property
    def address_count(self) -> int:
        return 1 << (32 - self.prefix_bits)

    @property
    def idle_timeout(self) -> float:
        if self.churn:
            return max(2.0, self.duration / 4.0)
        return self.duration * 10.0

    @property
    def host_memory_bytes(self) -> int:
        image = self.vm_image_mb << 20
        if self.memory_profile == "roomy":
            # Every dark address full-copied plus headroom still fits.
            return image * (self.address_count + 16)
        return image * max(12, self.address_count // 3)

    @property
    def equivalence_eligible(self) -> bool:
        """True when the delta-vs-full-copy and sharing-flip worlds are
        *expected* to be guest-visibly identical: unconstrained memory,
        no reclamation racing the workload, no injected faults, and no
        warm pool (pool refill timing differs across clone modes and
        permutes guest seed assignment)."""
        return (
            self.memory_profile == "roomy"
            and not self.churn
            and not self.fault_events
            and self.warm_pool_size == 0
        )

    def farm_config(
        self,
        clone_mode: str = "flash",
        containment: Optional[str] = None,
        content_sharing: Optional[bool] = None,
        ladder: bool = False,
        deception: Optional[bool] = None,
    ) -> HoneyfarmConfig:
        """The farm configuration for one world of this scenario."""
        deceive = self.deception if deception is None else deception
        return HoneyfarmConfig(
            ladder=ladder,
            deception=DeceptionConfig(enabled=True) if deceive else DeceptionConfig(),
            prefixes=(self.prefix,),
            num_hosts=self.num_hosts,
            host_memory_bytes=self.host_memory_bytes,
            max_vms_per_host=max(512, self.address_count + 16),
            vm_image_bytes=self.vm_image_mb << 20,
            idle_timeout_seconds=self.idle_timeout,
            flow_idle_timeout_seconds=max(self.idle_timeout, 30.0),
            sweep_interval_seconds=1.0,
            memory_pressure_threshold=0.9 if self.memory_profile == "tight" else None,
            containment=self.containment if containment is None else containment,
            content_sharing=(
                self.content_sharing if content_sharing is None else content_sharing
            ),
            warm_pool_size=self.warm_pool_size,
            pending_timeout_seconds=self.pending_timeout,
            clone_mode=clone_mode,
            clone_jitter=0.0,
            seed=self.seed,
        )

    def fault_plan(self) -> FaultPlan:
        """The scenario's fault plan (empty plan when no events)."""
        return FaultPlan(
            events=tuple(FaultSpec.from_dict(e) for e in self.fault_events),
            seed=SeedSequence(self.seed).spawn("faults").root_seed,
        )

    # ------------------------------------------------------------------ #
    # Trace synthesis (the one input every world shares)
    # ------------------------------------------------------------------ #

    def build_trace(self) -> PacketColumns:
        """The deterministic packet trace driving every world.

        Telescope background radiation plus the scenario's worm waves,
        merged in time order (telescope rows first at equal times) and
        capped at ``max_packets``. Bit-identical across calls and
        processes for a given scenario; read-only, so every world of a
        differential run replays the same object.
        """
        telescope_seed = SeedSequence(self.seed).spawn("telescope").root_seed
        workload = TelescopeWorkload(
            [Prefix.parse(self.prefix)],
            TelescopeConfig(
                seed=telescope_seed,
                sources_per_second_per_slash16=self.telescope_rate * (
                    65536.0 / self.address_count
                ),
                exploit_source_fraction=self.exploit_fraction,
                probes_max=200,
            ),
        )
        telescope = workload.generate(self.duration, max_records=self.max_packets)
        if not self.worm_waves:
            return telescope  # already sorted and capped
        return (telescope + self._wave_records()).sorted_by_time(self.max_packets)

    def _wave_records(self) -> PacketColumns:
        """Every wave source's scans inside the trace window, in draw
        order (not yet time-sorted). A UDP worm's scan is the exploit
        datagram; a TCP worm's is a SYN, then the exploit segment."""
        inventory_prefix = Prefix.parse(self.prefix)
        network, width = inventory_prefix.network, self.address_count
        bits = width.bit_length()
        seeds = SeedSequence(self.seed).spawn("worm-waves")
        rng = Random()  # reseeded per source, as the telescope's sessions are
        random, getrandbits = rng.random, rng.getrandbits
        times = array("d")
        keys: List[ArrivalKey] = []
        payloads: List[str] = []
        sizes: List[int] = []
        for index, wave in enumerate(self.worm_waves):
            spec = KNOWN_WORMS[wave.worm]
            exploit = (spec.exploit_tag, 40 + spec.payload_size)
            if spec.protocol == PROTO_UDP:
                burst = ((0.0, *exploit),)
            else:
                burst = ((0.0, "", 40), (_EXPLOIT_PAYLOAD_DELAY, *exploit))
            end = min(wave.start + wave.duration, self.duration)
            for source_index in range(wave.sources):
                rng.seed(seeds.seed_of(f"wave-{index}-source-{source_index}"))
                source = random_external_address(rng, inventory_prefix.contains)
                src_port = 1024 + randbelow(rng, 60001)
                t = wave.start
                while t < end:
                    host = getrandbits(bits)
                    while host >= width:
                        host = getrandbits(bits)
                    key = (source, src_port, network + host, spec.port, spec.protocol)
                    for offset, payload, size in burst:
                        if t + offset < self.duration:
                            times.append(t + offset)
                            keys.append(key)
                            payloads.append(payload)
                            sizes.append(size)
                    t += -log(1.0 - random()) / wave.rate
        return PacketColumns(times, keys, payloads, sizes, [0] * len(times))

    # ------------------------------------------------------------------ #
    # Size (shrinker metric) and serialization
    # ------------------------------------------------------------------ #

    def size(self) -> int:
        """A monotone complexity score: every shrink transformation
        strictly reduces it, so greedy minimization terminates."""
        return (
            self.max_packets
            + int(self.duration * 10)
            + self.address_count // 4
            + self.num_hosts * 8
            + len(self.worm_waves) * 30
            + sum(w.sources for w in self.worm_waves) * 5
            + len(self.fault_events) * 40
            + len(self.adversaries) * 30
            + sum(a.tier + a.num_targets for a in self.adversaries)
            + (8 if self.deception else 0)
            + self.warm_pool_size * 2
            + (4 if self.pending_timeout is not None else 0)
            + (6 if self.churn else 0)
            + (10 if self.memory_profile == "tight" else 0)
            + int(self.telescope_rate * 2)
        )

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["worm_waves"] = [asdict(w) for w in self.worm_waves]
        data["fault_events"] = [dict(e) for e in self.fault_events]
        data["adversaries"] = [asdict(a) for a in self.adversaries]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"scenario has unknown fields: {sorted(unknown)}")
        data = dict(data)
        data["worm_waves"] = tuple(
            WormWave(**w) for w in data.get("worm_waves", ())
        )
        data["fault_events"] = tuple(data.get("fault_events", ()))
        data["adversaries"] = tuple(
            AdversarySpec(**a) for a in data.get("adversaries", ())
        )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


class ScenarioGenerator:
    """Synthesizes random scenarios from a single root seed.

    Scenario ``i`` depends only on ``(root_seed, i)``, so a failing
    scenario reported as ``seed=S index=I`` is regenerated exactly by
    ``ScenarioGenerator(S).scenario(I)`` — no state to replay.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._seeds = SeedSequence(self.root_seed)

    def scenario(self, index: int) -> Scenario:
        rng = self._seeds.stream(f"scenario-{index}")
        prefix_bits = rng.choice([24, 25, 25, 26, 26])
        duration = round(rng.uniform(6.0, 14.0), 1)
        num_hosts = rng.choice([1, 1, 2, 2])
        containment = rng.weighted_choice(
            ["drop-all", "allow-dns", "reflect", "open"],
            [0.40, 0.20, 0.30, 0.10],
        )
        memory_profile = "roomy" if rng.bernoulli(0.7) else "tight"
        churn = rng.bernoulli(0.25)
        warm_pool = rng.choice([0, 0, 0, 4])
        pending_timeout = rng.choice([None, None, None, 5.0])
        waves = self._waves(rng, duration)
        faults = self._faults(rng, duration, num_hosts)
        # Draws below stay in this order so older scenarios regenerate
        # identically; the adversary/deception draws append at the end.
        seed = rng.randint(0, 2**31 - 1)
        vm_image_mb = rng.choice([4, 8])
        content_sharing = rng.bernoulli(0.75)
        telescope_rate = round(rng.uniform(4.0, 12.0), 2)
        exploit_fraction = round(rng.uniform(0.2, 0.5), 2)
        max_packets = rng.randint(200, 700)
        adversaries = self._adversaries(rng, duration)
        deception = rng.bernoulli(0.35 if adversaries else 0.1)
        return Scenario(
            seed=seed,
            prefix_bits=prefix_bits,
            duration=duration,
            num_hosts=num_hosts,
            vm_image_mb=vm_image_mb,
            containment=containment,
            content_sharing=content_sharing,
            warm_pool_size=warm_pool,
            pending_timeout=pending_timeout,
            memory_profile=memory_profile,
            churn=churn,
            telescope_rate=telescope_rate,
            exploit_fraction=exploit_fraction,
            max_packets=max_packets,
            worm_waves=waves,
            fault_events=faults,
            adversaries=adversaries,
            deception=deception,
            name=f"gen-{self.root_seed}-{index}",
        )

    def _waves(self, rng: RandomStream, duration: float) -> Tuple[WormWave, ...]:
        count = rng.choice([0, 1, 1, 2])
        waves = []
        for __ in range(count):
            start = round(rng.uniform(0.0, duration * 0.5), 1)
            waves.append(WormWave(
                worm=rng.choice(["codered", "slammer", "sasser", "blaster"]),
                start=start,
                duration=round(rng.uniform(2.0, duration - start), 1),
                sources=rng.randint(1, 3),
                rate=round(rng.uniform(1.0, 4.0), 1),
            ))
        return tuple(waves)

    def _adversaries(
        self, rng: RandomStream, duration: float
    ) -> Tuple[AdversarySpec, ...]:
        count = rng.choice([0, 0, 0, 1, 1, 2])
        specs = []
        for __ in range(count):
            kind = "fingerprint" if rng.bernoulli(0.7) else "botnet"
            specs.append(AdversarySpec(
                kind=kind,
                # Early enough that the recon/analyze/echo stages fit
                # inside the run window plus cool-down.
                start=round(rng.uniform(0.2, max(0.3, duration * 0.4)), 1),
                tier=rng.randint(0, 3) if kind == "fingerprint" else 0,
                num_targets=rng.randint(3, 6),
                worm=rng.choice(["slammer", "codered"]),
            ))
        return tuple(specs)

    def _faults(
        self, rng: RandomStream, duration: float, num_hosts: int
    ) -> Tuple[Dict[str, Any], ...]:
        events: List[Dict[str, Any]] = []
        if num_hosts >= 2 and rng.bernoulli(0.3):
            events.append({
                "kind": "host_crash",
                "at": round(rng.uniform(duration * 0.2, duration * 0.6), 1),
                "target": str(rng.randint(0, num_hosts - 1)),
                "duration": round(rng.uniform(2.0, 8.0), 1),
            })
        if rng.bernoulli(0.15):
            events.append({
                "kind": "clone_faults",
                "at": round(rng.uniform(0.0, duration * 0.5), 1),
                "duration": round(rng.uniform(2.0, 6.0), 1),
                "rate": round(rng.uniform(0.2, 0.5), 2),
            })
        return tuple(events)

    def generate(self, count: int, start_index: int = 0) -> List[Scenario]:
        return [self.scenario(start_index + i) for i in range(count)]
