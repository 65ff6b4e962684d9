"""Delta-virtualization accounting: what copy-on-write sharing buys.

The mechanism lives in :mod:`repro.vmm.memory` (base + runs + extents
address spaces); this module provides the *measurements* the paper
reports on top of it — per-host and farm-wide breakdowns of where
physical memory goes, and the consolidation factor versus a
conventional full-copy deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.vmm.host import PhysicalHost
from repro.vmm.memory import PAGE_SIZE

__all__ = ["MemoryBreakdown", "host_memory_breakdown", "farm_memory_breakdown"]


@dataclass(frozen=True)
class MemoryBreakdown:
    """Where a host's (or farm's) physical memory goes.

    All quantities in bytes. ``full_copy_equivalent`` is what the same VM
    population would consume if every VM carried a private copy of its
    image — the denominatorless way the paper states the delta-
    virtualization win.
    """

    capacity: int
    image_resident: int
    private_resident: int
    live_vms: int
    full_copy_equivalent: int
    # Bytes content-based sharing is saving (0 when sharing is off).
    # ``private_resident`` stays the *logical* overlay footprint, so
    # physical usage is private_resident - sharing_savings.
    sharing_savings: int = 0
    shared_resident: int = 0

    @property
    def total_resident(self) -> int:
        return self.image_resident + self.private_resident

    @property
    def physical_private_resident(self) -> int:
        """Physical bytes actually backing the overlays."""
        return self.private_resident - self.sharing_savings

    @property
    def mean_private_per_vm(self) -> float:
        """Mean private footprint per VM, in bytes."""
        return self.private_resident / self.live_vms if self.live_vms else 0.0

    @property
    def consolidation_factor(self) -> float:
        """full-copy bytes / actual bytes — how many times more memory a
        conventional deployment would need for the same VM population."""
        if self.total_resident == 0:
            return 1.0
        return self.full_copy_equivalent / self.total_resident

    @property
    def utilization(self) -> float:
        return self.total_resident / self.capacity if self.capacity else 0.0

    def merged_with(self, other: "MemoryBreakdown") -> "MemoryBreakdown":
        return MemoryBreakdown(
            capacity=self.capacity + other.capacity,
            image_resident=self.image_resident + other.image_resident,
            private_resident=self.private_resident + other.private_resident,
            live_vms=self.live_vms + other.live_vms,
            full_copy_equivalent=self.full_copy_equivalent + other.full_copy_equivalent,
            sharing_savings=self.sharing_savings + other.sharing_savings,
            shared_resident=self.shared_resident + other.shared_resident,
        )


def host_memory_breakdown(host: PhysicalHost) -> MemoryBreakdown:
    """Measure one host.

    ``full_copy_equivalent`` counts each live VM at its full image size
    plus the resident images themselves (a conventional deployment still
    needs one master copy per personality).
    """
    image_resident = sum(
        snap.image.page_count for snap in host.snapshots.values() if not snap.image.released
    )
    full_copy = image_resident
    vms = 0
    for vm in host.vms():
        vms += 1
        full_copy += vm.address_space.page_count
    return MemoryBreakdown(
        capacity=host.memory.capacity_bytes,
        image_resident=image_resident * PAGE_SIZE,
        private_resident=host.memory.private_pages * PAGE_SIZE,
        live_vms=vms,
        full_copy_equivalent=full_copy * PAGE_SIZE,
        sharing_savings=host.memory.sharing_savings_frames * PAGE_SIZE,
        shared_resident=host.memory.shared_frames * PAGE_SIZE,
    )


def farm_memory_breakdown(hosts: Iterable[PhysicalHost]) -> MemoryBreakdown:
    """Aggregate breakdown across the cluster."""
    merged = MemoryBreakdown(
        capacity=0,
        image_resident=0,
        private_resident=0,
        live_vms=0,
        full_copy_equivalent=0,
    )
    for host in hosts:
        merged = merged.merged_with(host_memory_breakdown(host))
    return merged
