"""Physical honeyfarm servers.

A :class:`PhysicalHost` owns a frame pool, the reference snapshots resident
on it, and the set of live VMs. It enforces the two admission limits the
paper discusses: physical memory (the binding constraint once delta
virtualization is on) and a VM-count ceiling standing in for other
per-domain costs (hypervisor structures, shadow page tables, CPU).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

from repro.vmm.memory import MachineMemory
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine, VMState

__all__ = ["HostCapacityError", "PhysicalHost"]

_host_ids = itertools.count(1)

DEFAULT_HOST_MEMORY_BYTES = 2 * (1 << 30)
"""2 GiB, matching the class of server in the paper's testbed."""

DEFAULT_MAX_VMS = 512
"""Per-host domain ceiling; the paper demonstrated 116 concurrent VMs and
argues ~10x headroom with further toolstack work, so the simulator's
default ceiling is set above the demonstrated figure."""


class HostCapacityError(Exception):
    """Raised when a host cannot admit another VM (memory or VM ceiling).

    The honeyfarm orchestrator catches this to trigger reclamation or to
    spill the clone onto another host.
    """


class PhysicalHost:
    """One server in the honeyfarm cluster."""

    def __init__(
        self,
        memory_bytes: int = DEFAULT_HOST_MEMORY_BYTES,
        max_vms: int = DEFAULT_MAX_VMS,
        name: Optional[str] = None,
        host_id: Optional[int] = None,
        content_sharing: bool = True,
    ) -> None:
        if max_vms <= 0:
            raise ValueError(f"max_vms must be positive: {max_vms!r}")
        # Callers that own a cluster (the Honeyfarm) pass farm-local ids so
        # two identically-seeded farms in one process build identical
        # clusters; the process-global counter is only the standalone
        # fallback.
        self.host_id = next(_host_ids) if host_id is None else int(host_id)
        self.name = name or f"host-{self.host_id}"
        self.memory = MachineMemory(memory_bytes, content_sharing=content_sharing)
        self.max_vms = max_vms
        self.snapshots: Dict[str, ReferenceSnapshot] = {}
        self._vms: Dict[int, VirtualMachine] = {}
        self.vms_created_total = 0
        self.vms_destroyed_total = 0
        self.peak_live_vms = 0
        self.failed = False
        self.failures_total = 0
        self.repairs_total = 0

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def install_snapshot(self, snapshot: ReferenceSnapshot) -> None:
        """Make a reference snapshot resident (frames already charged to
        this host's pool by the snapshot's constructor)."""
        if snapshot.image.memory is not self.memory:
            raise ValueError(
                f"snapshot {snapshot.name!r} was built against a different host's memory"
            )
        if snapshot.personality in self.snapshots:
            raise ValueError(
                f"host {self.name} already has a snapshot for {snapshot.personality!r}"
            )
        self.snapshots[snapshot.personality] = snapshot

    def snapshot_for(self, personality: str) -> ReferenceSnapshot:
        """The resident snapshot for ``personality`` (KeyError if absent)."""
        return self.snapshots[personality]

    # ------------------------------------------------------------------ #
    # VM admission and tracking
    # ------------------------------------------------------------------ #

    @property
    def live_vms(self) -> int:
        return len(self._vms)

    def has_vm_slot(self) -> bool:
        return not self.failed and self.live_vms < self.max_vms

    def admit(self, vm: VirtualMachine) -> None:
        """Register a newly created VM on this host."""
        if self.failed:
            raise HostCapacityError(f"{self.name} is down; repair it first")
        if not self.has_vm_slot():
            raise HostCapacityError(
                f"{self.name} at VM ceiling ({self.max_vms}); reclaim first"
            )
        vm.host_id = self.host_id
        self._vms[vm.vm_id] = vm
        self.vms_created_total += 1
        if self.live_vms > self.peak_live_vms:
            self.peak_live_vms = self.live_vms

    def evict(self, vm: VirtualMachine, now: float) -> int:
        """Destroy and deregister a VM; returns frames freed."""
        if vm.vm_id not in self._vms:
            raise KeyError(f"VM {vm.vm_id} is not on {self.name}")
        freed = vm.destroy(now)
        del self._vms[vm.vm_id]
        self.vms_destroyed_total += 1
        return freed

    def get_vm(self, vm_id: int) -> Optional[VirtualMachine]:
        return self._vms.get(vm_id)

    def vms(self) -> Iterator[VirtualMachine]:
        """Iterate live VMs (snapshot list, safe to evict while iterating)."""
        return iter(list(self._vms.values()))

    def idle_vms(self, now: float, threshold: float) -> List[VirtualMachine]:
        """Running VMs idle for at least ``threshold`` seconds, most idle
        first — the reclamation order the idle-timeout policy uses."""
        idle = [
            vm
            for vm in self._vms.values()
            if vm.state is VMState.RUNNING
            and not vm.parked
            and vm.idle_for(now) >= threshold
        ]
        idle.sort(key=lambda vm: vm.last_activity)
        return idle

    # ------------------------------------------------------------------ #
    # Crash and repair (the chaos subsystem's mechanism layer)
    # ------------------------------------------------------------------ #

    def fail(self, now: float) -> List[VirtualMachine]:
        """Crash the host: every resident VM is destroyed and admission
        is refused until :meth:`repair`.

        Returns the destroyed VMs so the orchestrator can unwind the
        state bound to them (gateway maps, pending queues, pool slots).
        The reference snapshots stay accounted against the frame pool: a
        repair models a reboot that re-imports the same images.
        """
        if self.failed:
            raise ValueError(f"{self.name} is already down")
        self.failed = True
        self.failures_total += 1
        victims = list(self._vms.values())
        for vm in victims:
            vm.destroy(now)
        self._vms.clear()
        self.vms_destroyed_total += len(victims)
        return victims

    def repair(self) -> None:
        """Bring a crashed host back into admission rotation."""
        if not self.failed:
            raise ValueError(f"{self.name} is not down")
        self.failed = False
        self.repairs_total += 1

    # ------------------------------------------------------------------ #
    # Capacity reporting
    # ------------------------------------------------------------------ #

    @property
    def memory_utilization(self) -> float:
        return self.memory.allocated_frames / self.memory.capacity_frames

    def total_private_pages(self) -> int:
        return sum(vm.private_pages for vm in self._vms.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PhysicalHost {self.name!r} vms={self.live_vms}/{self.max_vms}"
            f" mem={self.memory.allocated_frames}/{self.memory.capacity_frames}f>"
        )
