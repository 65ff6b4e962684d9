"""Content-based page sharing: the scanner, now a cross-check.

Delta virtualization shares pages that were *never modified*; the live
:class:`~repro.vmm.memory.SharedFrameStore` additionally collapses pages
whose contents happen to be identical even though they were written
independently (ESX-style content dedup). In a honeyfarm that redundancy
is enormous: every victim of the same worm carries the same worm body.

Historically this module only *measured* the opportunity; the mechanism
now exists, so the scan plays two roles:

* on sharing-off (ablation) hosts it still quantifies what a
  content-sharing VMM would reclaim;
* on sharing-on hosts it verifies the O(1) live ledger: for each host,
  the duplicates the O(n) scan finds must equal that host's
  ``savings_frames``, or the store's refcounts have drifted. The scan
  then reports only the *remaining* opportunity — duplicates across
  host boundaries, which per-host stores cannot collapse — so a
  single sharing-on host reports ~zero.

Worm bodies write deterministic per-worm content tags (see
:func:`repro.services.guest._worm_page_content`), so the measured
savings reflect exactly the cross-victim redundancy a real scanner
would find. They are the only pinned content: every other private page
holds a fresh tag, which no other page can carry
(:data:`repro.vmm.memory.PINNED`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.report import format_table
from repro.vmm.host import PhysicalHost
from repro.vmm.memory import PAGE_SIZE

__all__ = ["DedupStats", "dedup_opportunity"]


@dataclass(frozen=True)
class DedupStats:
    """What a content-sharing scanner found."""

    vms_scanned: int
    total_private_frames: int    # logical overlay pages (refs, not frames)
    distinct_contents: int
    shareable_frames: int        # duplicates the live stores have NOT collapsed
    largest_duplicate_group: int
    already_shared_frames: int = 0   # duplicates the live stores already collapsed

    @property
    def shareable_bytes(self) -> int:
        return self.shareable_frames * PAGE_SIZE

    @property
    def already_shared_bytes(self) -> int:
        return self.already_shared_frames * PAGE_SIZE

    @property
    def savings_fraction(self) -> float:
        """Fraction of private memory still reclaimable by more sharing."""
        if self.total_private_frames == 0:
            return 0.0
        return self.shareable_frames / self.total_private_frames

    def render(self) -> str:
        return format_table(["metric", "value"], [
            ["VMs scanned", self.vms_scanned],
            ["private frames", self.total_private_frames],
            ["distinct page contents", self.distinct_contents],
            ["shareable frames", self.shareable_frames],
            ["savings", f"{self.savings_fraction * 100:.1f}%"],
            ["largest duplicate group", self.largest_duplicate_group],
            ["reclaimable MiB", f"{self.shareable_bytes / 2**20:.1f}"],
            ["already shared frames (live)", self.already_shared_frames],
            ["already shared MiB (live)", f"{self.already_shared_bytes / 2**20:.1f}"],
        ], title="Content-based sharing opportunity")


def dedup_opportunity(hosts: Iterable[PhysicalHost]) -> DedupStats:
    """Scan all live VMs' private pages for identical contents.

    O(total private pages); the same pass a background scanner in the
    VMM would make. On hosts with content sharing enabled the scan also
    asserts agreement with the live store's O(1) accounting, raising
    :class:`AssertionError` on any divergence.
    """
    farm_counts: Counter = Counter()
    total = 0
    vms = 0
    already_shared = 0
    for host in hosts:
        host_counts: Counter = Counter()
        for vm in host.vms():
            if vm.address_space.destroyed:
                continue
            vms += 1
            for __, content in vm.address_space.private_page_contents():
                host_counts[content] += 1
        host_total = sum(host_counts.values())
        host_duplicates = host_total - len(host_counts)
        store = host.memory.sharing
        if store is not None:
            # Cross-check the mechanism against the measurement: every
            # within-host duplicate must already be collapsed.
            if store.savings_frames != host_duplicates:
                raise AssertionError(
                    f"{host.name}: live store reports {store.savings_frames}"
                    f" frames saved but the scan found {host_duplicates}"
                    " within-host duplicates"
                )
            already_shared += host_duplicates
        total += host_total
        farm_counts.update(host_counts)
    distinct = len(farm_counts)
    largest = max(farm_counts.values(), default=0)
    return DedupStats(
        vms_scanned=vms,
        total_private_frames=total,
        distinct_contents=distinct,
        shareable_frames=total - distinct - already_shared,
        largest_duplicate_group=largest,
        already_shared_frames=already_shared,
    )
