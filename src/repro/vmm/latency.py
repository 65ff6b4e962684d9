"""Control-plane cost model for cloning, booting, and copying.

The paper's Table 1 breaks flash-clone latency into control-plane stages
and reports a total of roughly half a second — dominated not by memory
work (delta virtualization makes that nearly free) but by the management
toolstack and device plumbing. We encode that breakdown as a
:class:`CloneCostModel` whose stage costs are *simulated* milliseconds
charged on the event clock, with small lognormal jitter so latency
histograms have realistic spread.

Calibration: the default stage costs below sum to 521 ms, the headline
flash-clone figure, apportioned to match the paper's qualitative
breakdown (toolstack overhead largest; raw hypervisor domain creation and
CoW page-table setup small). The boot-from-scratch comparator is tens of
seconds, and the full-copy ablation adds a per-page memcpy term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.rand import RandomStream

__all__ = [
    "BOOT_FROM_SCRATCH_SECONDS",
    "DEFAULT_STAGE_COSTS_MS",
    "FULL_COPY_BYTES_PER_SECOND",
    "StageCost",
    "CloneCostModel",
]

BOOT_FROM_SCRATCH_SECONDS = 43.0
"""Time to cold-boot a honeypot VM (dedicated-VM baseline); the paper
motivates flash cloning against boots of this order."""

FULL_COPY_BYTES_PER_SECOND = 2.0e9
"""Memory copy bandwidth for the full-copy ablation (~2 GB/s memcpy)."""

#: Default flash-clone stage costs in milliseconds, totalling 521 ms.
#: Stage names follow the clone pipeline:
#:   domain_create     — hypervisor creates the empty domain
#:   memory_cow_setup  — delta virtualization: mark parent pages CoW,
#:                       build the child's page-table overlay
#:   device_setup      — attach CoW block device and virtual NIC
#:   network_reconfig  — rewrite the clone's IP/MAC and refresh ARP state
#:   toolstack         — management-daemon overhead (Xend in the paper),
#:                       the dominant cost
DEFAULT_STAGE_COSTS_MS: Dict[str, float] = {
    "domain_create": 24.0,
    "memory_cow_setup": 31.0,
    "device_setup": 135.0,
    "network_reconfig": 52.0,
    "toolstack": 279.0,
}


@dataclass(frozen=True)
class StageCost:
    """One stage's charge for a single clone operation."""

    stage: str
    seconds: float


class CloneCostModel:
    """Produces per-stage latency charges for VM lifecycle operations.

    Parameters
    ----------
    stage_costs_ms:
        Mean cost per flash-clone stage, in milliseconds.
    jitter:
        Coefficient of variation applied lognormally per stage; 0 disables
        jitter (used by the latency-breakdown bench, which reports means).
    rng:
        Random stream for jitter; required when ``jitter > 0``.
    """

    def __init__(
        self,
        stage_costs_ms: Optional[Dict[str, float]] = None,
        jitter: float = 0.05,
        rng: Optional[RandomStream] = None,
        boot_seconds: float = BOOT_FROM_SCRATCH_SECONDS,
        copy_bytes_per_second: float = FULL_COPY_BYTES_PER_SECOND,
    ) -> None:
        self.stage_costs_ms = dict(stage_costs_ms or DEFAULT_STAGE_COSTS_MS)
        for stage, cost in self.stage_costs_ms.items():
            if cost < 0:
                raise ValueError(f"stage {stage!r} has negative cost {cost!r}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0: {jitter!r}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter > 0 requires an rng")
        self.jitter = jitter
        self.rng = rng
        self.boot_seconds = boot_seconds
        self.copy_bytes_per_second = copy_bytes_per_second

    # ------------------------------------------------------------------ #

    def _jittered(self, mean_seconds: float) -> float:
        if self.jitter == 0 or self.rng is None or mean_seconds == 0:
            return mean_seconds
        # Lognormal with unit median scaled to the mean keeps costs positive.
        factor = self.rng.lognormal(0.0, self.jitter)
        return mean_seconds * factor

    def flash_clone_stages(self) -> List[StageCost]:
        """Per-stage charges for one flash-clone, in pipeline order."""
        return [
            StageCost(stage, self._jittered(ms / 1000.0))
            for stage, ms in self.stage_costs_ms.items()
        ]

    def mean_flash_clone_seconds(self) -> float:
        """The jitter-free total, for capacity planning."""
        return sum(self.stage_costs_ms.values()) / 1000.0

    def full_copy_stages(self, image_bytes: int) -> List[StageCost]:
        """Stages for the full-copy ablation: the flash-clone pipeline with
        ``memory_cow_setup`` replaced by an eager copy of the whole image."""
        stages = []
        for stage, ms in self.stage_costs_ms.items():
            if stage == "memory_cow_setup":
                copy_seconds = image_bytes / self.copy_bytes_per_second
                stages.append(StageCost("memory_full_copy", self._jittered(copy_seconds)))
            else:
                stages.append(StageCost(stage, self._jittered(ms / 1000.0)))
        return stages

    def reassign_stages(self) -> List[StageCost]:
        """Stages for binding a pre-created (warm-pool) VM to an address:
        only the network identity swap and a small dispatch overhead —
        the domain, memory, and devices already exist."""
        return [
            StageCost(
                "network_reconfig",
                self._jittered(self.stage_costs_ms["network_reconfig"] / 1000.0),
            ),
            StageCost("pool_dispatch", self._jittered(0.010)),
        ]

    def boot_stages(self) -> List[StageCost]:
        """Stages for a cold boot (dedicated-VM baseline): domain creation
        and device setup still apply, then the guest OS boot dwarfs them."""
        return [
            StageCost("domain_create", self._jittered(self.stage_costs_ms["domain_create"] / 1000.0)),
            StageCost("device_setup", self._jittered(self.stage_costs_ms["device_setup"] / 1000.0)),
            StageCost("guest_boot", self._jittered(self.boot_seconds)),
        ]

    def destroy_seconds(self) -> float:
        """Teardown charge: freeing overlay frames and detaching devices is
        far cheaper than creation; modelled as a flat 25 ms."""
        return self._jittered(0.025)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CloneCostModel total={self.mean_flash_clone_seconds()*1000:.0f}ms"
            f" jitter={self.jitter}>"
        )
