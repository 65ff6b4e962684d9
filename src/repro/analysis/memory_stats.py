"""Per-VM memory footprint statistics and capacity estimation (F-MEM).

The memory half of the scalability result: with delta virtualization a
clone's footprint is its dirtied pages, so the question "how many VMs fit
on a host?" becomes "image + N × (typical private footprint) ≤ RAM".
These helpers turn a farm's live VM population into the distribution the
paper plots and into a VMs-per-host estimate comparable to its
116-VMs-demonstrated figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.sim.metrics import Histogram
from repro.vmm.memory import PAGE_SIZE
from repro.vmm.vm import VirtualMachine

__all__ = [
    "FootprintSummary",
    "footprint_summary",
    "vms_per_host_estimate",
]


@dataclass(frozen=True)
class FootprintSummary:
    """Distribution of per-VM private footprints, in bytes."""

    vm_count: int
    mean: float
    median: float
    p90: float
    p99: float
    max: float
    total: float

    @property
    def mean_mib(self) -> float:
        return self.mean / (1 << 20)

    @property
    def median_mib(self) -> float:
        return self.median / (1 << 20)


def footprint_summary(vms: Iterable[VirtualMachine]) -> FootprintSummary:
    """Summarise the private footprints of a VM population."""
    hist = Histogram("private_bytes")
    for vm in vms:
        hist.observe(vm.private_bytes)
    return FootprintSummary(
        vm_count=hist.count,
        mean=hist.mean,
        median=hist.median,
        p90=hist.percentile(90),
        p99=hist.percentile(99),
        max=hist.max,
        total=hist.total,
    )


def vms_per_host_estimate(
    host_memory_bytes: int,
    image_bytes: int,
    private_bytes_per_vm: float,
    reserved_fraction: float = 0.05,
    full_copy: bool = False,
) -> int:
    """How many VMs a host of the given size can hold.

    ``reserved_fraction`` holds back memory for the control plane (dom0
    in the real system). With ``full_copy`` each VM is charged its whole
    image — the conventional-deployment comparator.
    """
    if not (0.0 <= reserved_fraction < 1.0):
        raise ValueError(f"reserved_fraction must be in [0, 1): {reserved_fraction!r}")
    usable = host_memory_bytes * (1.0 - reserved_fraction)
    per_vm = float(image_bytes) if full_copy else max(private_bytes_per_vm, PAGE_SIZE)
    available = usable - image_bytes  # one resident reference image either way
    if available <= 0:
        return 0
    return int(available // per_vm)
