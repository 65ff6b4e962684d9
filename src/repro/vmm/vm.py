"""Virtual machine lifecycle and identity.

A :class:`VirtualMachine` ties together the mechanisms the other vmm
modules provide — a CoW address space, a virtual NIC, a CoW block device —
with the lifecycle the honeyfarm manages:

    CLONING -> RUNNING -> DESTROYED
                 |
                 v
               PAUSED -> RUNNING

``CLONING`` covers the flash-clone pipeline (the gateway queues packets
for the VM until it reaches ``RUNNING``). ``PAUSED`` models the paper's
option of detaining an interesting (e.g. infected) VM for later forensic
inspection instead of recycling it.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.vmm.devices import VirtualBlockDevice, VirtualInterface
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.snapshot import ReferenceSnapshot

__all__ = ["VMState", "VirtualMachine"]


class VMState(enum.Enum):
    """Lifecycle states; see module docstring for the transition graph."""

    CLONING = "cloning"
    RUNNING = "running"
    PAUSED = "paused"
    DESTROYED = "destroyed"


class VirtualMachine:
    """One honeypot VM instance.

    Not constructed directly by users — the flash-cloning engine
    (:mod:`repro.core.flash_clone`) builds VMs from snapshots, and the
    dedicated baseline builds them the slow way. ``vm_id`` is the
    caller's: the engine numbers the VMs of its farm in creation order,
    and the NIC's MAC derives from it. ``guest`` is the behavioural model
    (:class:`repro.services.guest.GuestHost`) attached once the VM is
    running.
    """

    __slots__ = (
        "vm_id", "snapshot", "address_space", "vif", "ip", "disk", "state",
        "created_at", "started_at", "destroyed_at", "last_activity",
        "host_id", "guest", "detained", "parked",
    )

    def __init__(
        self,
        snapshot: ReferenceSnapshot,
        address_space: GuestAddressSpace,
        ip: int,
        created_at: float,
        vm_id: int,
        host_id: Optional[int] = None,
    ) -> None:
        self.vm_id = vm_id
        self.snapshot = snapshot
        self.address_space = address_space
        self.vif = VirtualInterface(vm_id, ip)
        #: The VM's address: the NIC's, copied here so the per-packet
        #: paths read one attribute. :meth:`begin_reassignment` moves both.
        self.ip = ip
        self.disk = VirtualBlockDevice(snapshot.disk)
        self.state = VMState.CLONING
        self.created_at = created_at
        self.started_at: Optional[float] = None
        self.destroyed_at: Optional[float] = None
        self.last_activity = created_at
        self.host_id = host_id
        self.guest: Any = None
        self.detained = False
        self.parked = False  # waiting in the warm pool, exempt from reclamation

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def personality(self) -> str:
        return self.snapshot.personality

    # ------------------------------------------------------------------ #
    # Lifecycle transitions
    # ------------------------------------------------------------------ #

    def start(self, now: float) -> None:
        """CLONING -> RUNNING (the clone pipeline finished)."""
        self._require_state(VMState.CLONING, "start")
        self.state = VMState.RUNNING
        self.started_at = now
        self.last_activity = now

    def pause(self, now: float) -> None:
        """RUNNING -> PAUSED (detain for inspection)."""
        self._require_state(VMState.RUNNING, "pause")
        self.state = VMState.PAUSED
        self.last_activity = now

    def begin_reassignment(self, ip: int, now: float) -> None:
        """RUNNING -> CLONING with a new network identity.

        The warm-pool path: a pre-created, pristine VM is bound to the
        address a packet just arrived for. The VM re-enters CLONING for
        the (short) identity-swap pipeline and :meth:`start` fires when
        it completes.
        """
        self._require_state(VMState.RUNNING, "reassign")
        self.state = VMState.CLONING
        self.vif.assign_ip(ip)
        self.ip = ip
        self.last_activity = now

    def resume(self, now: float) -> None:
        """PAUSED -> RUNNING."""
        self._require_state(VMState.PAUSED, "resume")
        self.state = VMState.RUNNING
        self.last_activity = now

    def destroy(self, now: float) -> int:
        """Any live state -> DESTROYED; releases memory and devices.

        Returns the number of private frames freed. Idempotent.
        """
        if self.state is VMState.DESTROYED:
            return 0
        self.state = VMState.DESTROYED
        self.destroyed_at = now
        freed = self.address_space.destroy()
        self.disk.detach()
        return freed

    def _require_state(self, expected: VMState, action: str) -> None:
        if self.state is not expected:
            raise ValueError(
                f"cannot {action} VM {self.vm_id} in state {self.state.value}"
                f" (expected {expected.value})"
            )

    # ------------------------------------------------------------------ #
    # Activity tracking (drives idle-timeout reclamation)
    # ------------------------------------------------------------------ #

    def touch(self, now: float) -> None:
        """Record network activity at ``now``."""
        self.last_activity = now

    def idle_for(self, now: float) -> float:
        return now - self.last_activity

    @property
    def is_live(self) -> bool:
        return self.state in (VMState.CLONING, VMState.RUNNING, VMState.PAUSED)

    @property
    def private_pages(self) -> int:
        return self.address_space.private_pages

    @property
    def private_bytes(self) -> int:
        return self.address_space.private_bytes

    @property
    def reclaimable_frames(self) -> int:
        """Physical frames destroying this VM frees (excludes frames the
        content-sharing store still shares with other VMs)."""
        return self.address_space.reclaimable_frames

    def lifetime(self, now: float) -> float:
        """Seconds alive so far (or total, if destroyed)."""
        end = self.destroyed_at if self.destroyed_at is not None else now
        return end - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VM {self.vm_id} ip={self.vif.ip} {self.state.value}"
            f" private={self.private_pages}p>"
        )
