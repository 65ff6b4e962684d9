"""Per-VM dirty-page diffs against the reference snapshot.

A :class:`PageDiff` is taken from the VMM side — the CoW overlay — so it
is trustworthy even though the guest is compromised. Ground-truth fields
(``infected``, ``worm_name``) are carried along for validation in tests
and reports; a real deployment would not have them, and nothing in the
clustering pipeline uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.net.addr import dotted
from repro.vmm.memory import PAGE_SIZE
from repro.vmm.vm import VirtualMachine

__all__ = ["PageDiff", "diff_vm"]


@dataclass(frozen=True)
class PageDiff:
    """The pages one VM dirtied relative to its reference image."""

    vm_id: int
    ip: str
    personality: str
    pages: FrozenSet[int]
    disk_blocks: FrozenSet[int]
    infected: bool
    worm_name: Optional[str]
    generation: Optional[int]

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    def jaccard(self, other: "PageDiff") -> float:
        """Similarity of two diffs' page sets (0 disjoint, 1 identical)."""
        if not self.pages and not other.pages:
            return 1.0
        union = len(self.pages | other.pages)
        if union == 0:
            return 1.0
        return len(self.pages & other.pages) / union


def diff_vm(vm: VirtualMachine) -> PageDiff:
    """Snapshot a live or detained VM's modification set.

    Raises ``ValueError`` for destroyed VMs — their overlay is gone, and
    pretending otherwise would silently produce empty diffs.
    """
    if vm.address_space.destroyed:
        raise ValueError(f"VM {vm.vm_id} has been destroyed; no overlay to diff")
    guest = vm.guest
    infected = bool(guest is not None and getattr(guest, "infected", False))
    worm_name = None
    generation = None
    if infected and guest.infection is not None:
        worm_name = guest.infection.worm_name
        generation = guest.infection.generation
    return PageDiff(
        vm_id=vm.vm_id,
        ip=dotted(vm.ip),
        personality=vm.personality,
        pages=frozenset(vm.address_space.private_page_numbers()),
        disk_blocks=(
            frozenset(vm.disk.dirty_block_numbers())
            if not vm.disk.detached else frozenset()
        ),
        infected=infected,
        worm_name=worm_name,
        generation=generation,
    )
