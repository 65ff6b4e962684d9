"""Serializable federated-run scenarios: both lanes from one JSON blob.

A :class:`FederationScenario` is the federated analogue of
:class:`~repro.testing.scenario.Scenario`: a frozen dataclass of knobs
from which every input to a federated run derives deterministically —
the per-shard farm configs, the epoch protocol constants, the
partitioned telescope workload, and the worm specs. One scenario builds
*both* lanes (:meth:`build_reference` for the in-process golden
federation, :meth:`build_parallel` for the multiprocess runner at any
worker count; :meth:`run` picks by worker count and returns the one
result type), which is what the worker-count invariance tests
(``tests/test_parallel_federation.py``) compare bit for bit.

Pinned scenarios live in ``tests/corpus/federation/`` (a subdirectory:
the top-level corpus glob replays plain :class:`Scenario` JSON and
would reject these fields).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.core.config import HoneyfarmConfig
from repro.core.federation import FederatedHoneyfarm, FederationResult
from repro.core.intershard import InterShardConfig
from repro.sim.rand import SeedSequence
from repro.workloads.telescope import PartitionedTelescope, TelescopeConfig
from repro.workloads.worms import KNOWN_WORMS

__all__ = ["FederationScenario"]

#: Worm scan rates are capped inside the farm for the same reason
#: ``testing/worlds.py`` throttles them: epidemic growth must not swamp
#: a small test shard within one epoch.
_DEFAULT_WORM_RATE = 2.0


@dataclass(frozen=True)
class FederationScenario:
    """One federated run, fully specified. See module docstring.

    Attributes
    ----------
    shards / shard_bits:
        ``shards`` consecutive prefixes of size ``/shard_bits`` starting
        at ``10.16.0.0`` — ``shard_bits=16`` reproduces the paper's
        one-/16-per-gateway layout (``10.16.0.0/16``, ``10.17.0.0/16``,
        ...), larger values give the small shards tests want.
    latency:
        The :class:`InterShardConfig` cross-shard latency (also the
        lockstep epoch width).
    telescope_rate:
        ``sources_per_second_per_slash16`` for every shard's partition;
        scale it up for small shards (the workload scales with shard
        size).
    worms:
        ``(name, scan_rate)`` pairs registered on every shard; names
        must be in :data:`~repro.workloads.worms.KNOWN_WORMS`.
    """

    seed: int
    shards: int = 2
    shard_bits: int = 24
    duration: float = 15.0
    latency: float = 0.5
    telescope_rate: float = 256.0
    exploit_fraction: float = 0.35
    probes_max: int = 200
    max_packets_per_shard: int = 2000
    containment: str = "reflect"
    ladder: bool = False
    num_hosts: int = 2
    vm_image_mb: int = 8
    worms: Tuple[Tuple[str, float], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError(f"shards must be positive: {self.shards!r}")
        if not (16 <= self.shard_bits <= 28):
            raise ValueError(f"shard_bits must be in [16, 28]: {self.shard_bits!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration!r}")
        if self.telescope_rate <= 0:
            raise ValueError(f"telescope_rate must be positive: {self.telescope_rate!r}")
        if not (0.0 <= self.exploit_fraction <= 1.0):
            raise ValueError(f"exploit_fraction must be in [0, 1]: {self.exploit_fraction!r}")
        if self.max_packets_per_shard <= 0:
            raise ValueError("max_packets_per_shard must be positive")
        if self.num_hosts <= 0 or self.vm_image_mb <= 0:
            raise ValueError("num_hosts and vm_image_mb must be positive")
        object.__setattr__(self, "worms", tuple(
            (str(name), float(rate)) for name, rate in self.worms
        ))
        for worm, __ in self.worms:
            if worm not in KNOWN_WORMS:
                raise ValueError(
                    f"unknown worm {worm!r}; known: {sorted(KNOWN_WORMS)}"
                )
        self.interlink()  # validate the latency eagerly

    # ------------------------------------------------------------------ #
    # Derived inputs
    # ------------------------------------------------------------------ #

    @property
    def addresses_per_shard(self) -> int:
        return 1 << (32 - self.shard_bits)

    def shard_prefix(self, shard: int) -> str:
        base = (10 << 24) | (16 << 16)
        value = base + shard * self.addresses_per_shard
        if value + self.addresses_per_shard > ((10 << 24) | (256 << 16)):
            raise ValueError(
                f"shard {shard} at /{self.shard_bits} runs past 10.255.255.255"
            )
        return (
            f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}"
            f".{(value >> 8) & 0xFF}.{value & 0xFF}/{self.shard_bits}"
        )

    def shard_prefixes(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple((self.shard_prefix(i),) for i in range(self.shards))

    def shard_configs(self) -> List[HoneyfarmConfig]:
        """One farm config per shard. The per-shard seed derives from
        ``(seed, shard)`` so shard farms are independent streams and any
        process rebuilds the identical config."""
        seeds = SeedSequence(self.seed)
        image = self.vm_image_mb << 20
        configs = []
        for shard in range(self.shards):
            configs.append(HoneyfarmConfig(
                prefixes=(self.shard_prefix(shard),),
                num_hosts=self.num_hosts,
                host_memory_bytes=image * (self.addresses_per_shard + 16),
                max_vms_per_host=max(512, self.addresses_per_shard + 16),
                vm_image_bytes=image,
                idle_timeout_seconds=self.duration * 10.0,
                flow_idle_timeout_seconds=max(self.duration * 10.0, 30.0),
                containment=self.containment,
                clone_jitter=0.0,
                ladder=self.ladder,
                seed=seeds.spawn(f"shard-farm-{shard}").root_seed,
            ))
        return configs

    def interlink(self) -> InterShardConfig:
        return InterShardConfig(latency_seconds=self.latency)

    def telescope(self) -> PartitionedTelescope:
        return PartitionedTelescope(
            shard_prefixes=self.shard_prefixes(),
            duration=self.duration,
            config=TelescopeConfig(
                seed=SeedSequence(self.seed).spawn("fed-telescope").root_seed,
                sources_per_second_per_slash16=self.telescope_rate,
                exploit_source_fraction=self.exploit_fraction,
                probes_max=self.probes_max,
            ),
            max_records_per_shard=self.max_packets_per_shard,
        )

    # ------------------------------------------------------------------ #
    # Lane builders
    # ------------------------------------------------------------------ #

    def build_reference(self, batched: bool = True) -> FederatedHoneyfarm:
        """The in-process golden lane, workload attached, ready to run."""
        federation = FederatedHoneyfarm(
            self.shard_configs(),
            interlink=self.interlink(),
            worms=self.worms,
        )
        federation.attach_telescope(self.telescope(), batched=batched)
        return federation

    def build_parallel(self, workers: int):
        """The multiprocess lane at ``workers`` processes (same inputs)."""
        from repro.core.parallel import ParallelFederation

        return ParallelFederation(
            self.shard_configs(),
            self.interlink(),
            workers,
            telescope=self.telescope(),
            worms=self.worms,
        )

    def run(self, workers: int = 0) -> FederationResult:
        """Run to ``duration`` on the in-process lane (``workers=0``) or
        over ``workers`` processes."""
        if workers:
            return self.build_parallel(workers).run(until=self.duration)
        federation = self.build_reference()
        federation.run(until=self.duration)
        return federation.result()

    # ------------------------------------------------------------------ #
    # Serialization (corpus pinning)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["worms"] = [list(pair) for pair in self.worms]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FederationScenario":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"federation scenario has unknown fields: {sorted(unknown)}"
            )
        data = dict(data)
        data["worms"] = tuple(
            (pair[0], pair[1]) for pair in data.get("worms", ())
        )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "FederationScenario":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **kwargs) -> "FederationScenario":
        return replace(self, **kwargs)
