"""Virtual devices: network interfaces and copy-on-write block devices.

Flash cloning must give each clone a working set of devices without
per-clone state of any size: the NIC is just an identity — an IP,
rewritten at clone time (the step the paper's network_reconfig stage pays
for), and a MAC derived from the interface's index when read — and the
disk is a CoW overlay over a shared base image, the block analogue of
delta virtualization, holding the blocks the clone wrote as extents. A
clone that never writes its disk holds no overlay at all.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional

__all__ = ["VirtualInterface", "VirtualBlockDevice", "DiskImage"]

BLOCK_SIZE = 4096
"""Bytes per disk block; CoW granularity for the block device."""


def _generate_mac(index: int) -> str:
    """Locally-administered MAC in the honeyfarm's range."""
    return "02:70:6b:{:02x}:{:02x}:{:02x}".format(
        (index >> 16) & 0xFF, (index >> 8) & 0xFF, index & 0xFF
    )


class VirtualInterface:
    """A clone's virtual NIC: its impersonated network identity.

    The IP address is mutable — that's the whole point: the gateway
    assigns the clone whichever dark address the triggering packet
    targeted, after the VM was forked from a reference with a placeholder
    address. The MAC is fixed at creation and formatted from the
    interface's ``index`` (a VM's NIC takes the VM's id) when asked for.
    """

    __slots__ = ("ip", "_index")

    def __init__(self, index: int, ip: Optional[int] = None) -> None:
        self._index = index
        self.ip = ip

    @property
    def mac(self) -> str:
        return _generate_mac(self._index)

    def assign_ip(self, ip: int) -> None:
        """Rewrite the interface's IP (the clone-time identity swap)."""
        self.ip = ip

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualInterface ip={self.ip} mac={self.mac}>"


class DiskImage:
    """A shared, read-only base disk image.

    ``sharers`` mirrors :class:`~repro.vmm.memory.ReferenceImage`; the
    image cannot be retired while clones still overlay it.
    """

    def __init__(self, block_count: int, name: str = "base-disk") -> None:
        if block_count <= 0:
            raise ValueError(f"block_count must be positive: {block_count!r}")
        self.block_count = block_count
        self.name = name
        self.sharers = 0

    @property
    def bytes(self) -> int:
        return self.block_count * BLOCK_SIZE

    def attach(self) -> None:
        self.sharers += 1

    def detach(self) -> None:
        if self.sharers <= 0:
            raise ValueError("detach without matching attach")
        self.sharers -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DiskImage {self.name!r} blocks={self.block_count} sharers={self.sharers}>"


class VirtualBlockDevice:
    """A clone's disk: CoW overlay over a shared :class:`DiskImage`.

    The blocks the clone has written are held as extents — a sorted flat
    list ``[first, end, first, end, ...]`` of disjoint, non-touching
    half-open block ranges — created by the first write. ``private_blocks``
    is the clone's marginal disk footprint, reported by the
    memory-economics experiment alongside private memory pages.
    """

    __slots__ = ("image", "_extents", "detached")

    def __init__(self, image: DiskImage) -> None:
        image.attach()
        self.image = image
        self._extents: Optional[List[int]] = None
        self.detached = False

    def read(self, block: int) -> bool:
        """Read one block; returns True if served from the private overlay."""
        self._check(block, 1)
        extents = self._extents
        return extents is not None and bisect_right(extents, block) % 2 == 1

    def write(self, block: int) -> bool:
        """Write one block; returns True if this was the first write (a CoW
        block allocation)."""
        return self.write_run(block, 1) == 1

    def write_run(self, block: int, count: int) -> int:
        """Write ``count`` consecutive blocks from ``block`` on; returns how
        many were written for the first time (CoW block allocations)."""
        self._check(block, count)
        if count <= 0:
            return 0
        end = block + count
        extents = self._extents
        if extents is None:
            self._extents = [block, end]
            return count
        # Boundaries before ``lo`` lie before ``block`` and those from
        # ``hi`` on after ``end``; an odd index falls inside an extent,
        # which the written range absorbs (touching extents merge too).
        lo = bisect_left(extents, block)
        hi = bisect_right(extents, end)
        if lo % 2:
            lo -= 1
            block = extents[lo]
        if hi % 2:
            end = extents[hi]
            hi += 1
        absorbed = extents[lo:hi]
        extents[lo:hi] = (block, end)
        return end - block - sum(absorbed[1::2]) + sum(absorbed[::2])

    @property
    def private_blocks(self) -> int:
        extents = self._extents or ()
        return sum(extents[1::2]) - sum(extents[::2])

    def dirty_block_numbers(self) -> Iterator[int]:
        """Iterator over the blocks this clone has written (forensics)."""
        extents = self._extents or ()
        return itertools.chain.from_iterable(map(range, extents[::2], extents[1::2]))

    @property
    def private_bytes(self) -> int:
        return self.private_blocks * BLOCK_SIZE

    def detach(self) -> None:
        """Drop the overlay and release the base image reference."""
        if self.detached:
            return
        self._extents = None
        self.image.detach()
        self.detached = True

    def _check(self, block: int, count: int) -> None:
        if self.detached:
            raise ValueError("block device has been detached")
        total = self.image.block_count
        if not (0 <= block and block + count <= total):
            raise IndexError(f"blocks {block}..{block + count - 1} outside image of {total}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualBlockDevice private={self.private_blocks} blocks>"
