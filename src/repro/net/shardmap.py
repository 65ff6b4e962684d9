"""Shard routing over prefixes: which federation member owns an address.

The federation partitions the dark space by prefix; every gateway needs
a constant-time answer to "is this destination mine, a sibling shard's,
or the real Internet?" — the same divert decision the paper's upstream
routers make with per-/16 GRE tunnels. :class:`ShardMap` is that routing
table: per-shard prefix lists flattened into globally-disjoint sorted
integer ranges (the same bisect layout as
:class:`~repro.net.addr.AddressSpaceInventory`), looked up by address.

The map is deliberately built from *prefix strings*, so the identical
map can be reconstructed in every worker process from a plain picklable
spec — all shards, in all processes, must agree on the routing table and
on the registration order of the federation-wide inventory (the
reflection policy hashes into that flat index space; see
docs/FEDERATION.md).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.net.addr import AddressSpaceInventory, Prefix

__all__ = ["ShardMap"]


class ShardMap:
    """Maps dark addresses to the shard that owns them.

    Parameters
    ----------
    shard_prefixes:
        One sequence of prefix strings per shard, in shard order. The
        prefixes must be mutually disjoint across the whole federation;
        shard order is global protocol state (it fixes both shard
        indices and the federation inventory's flat-index layout), so
        every process must build the map from the same spec.
    """

    def __init__(self, shard_prefixes: Sequence[Sequence[str]]) -> None:
        if not shard_prefixes:
            raise ValueError("a shard map needs at least one shard")
        self.shard_prefixes: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(prefixes) for prefixes in shard_prefixes
        )
        parsed: List[Tuple[Prefix, int]] = []
        for shard, prefixes in enumerate(self.shard_prefixes):
            if not prefixes:
                raise ValueError(f"shard {shard} owns no prefixes")
            for text in prefixes:
                parsed.append((Prefix.parse(text), shard))
        # One federation-wide inventory validates global disjointness and
        # fixes the flat-index layout (registration order = shard order).
        self._inventory = AddressSpaceInventory([p for p, __ in parsed])
        ranges = sorted(
            (prefix.network, prefix.network + prefix.size - 1, shard)
            for prefix, shard in parsed
        )
        self._starts = [r[0] for r in ranges]
        self._ends = [r[1] for r in ranges]
        self._shards = [r[2] for r in ranges]

    @property
    def shard_count(self) -> int:
        return len(self.shard_prefixes)

    @property
    def global_inventory(self) -> AddressSpaceInventory:
        """Every shard's prefixes as one inventory, in shard order.

        This is the address space a federation-aware reflection policy
        hashes over: the flat-index layout is identical in every process
        because it derives from the shard spec alone.
        """
        return self._inventory

    def shard_for(self, addr: int) -> Optional[int]:
        """The shard owning ``addr`` (None = outside every shard)."""
        idx = bisect_right(self._starts, addr) - 1
        if idx < 0 or addr > self._ends[idx]:
            return None
        return self._shards[idx]

    def covers(self, addr: int) -> bool:
        return self.shard_for(addr) is not None

    def addresses_of(self, shard: int) -> int:
        """Dark addresses owned by ``shard`` (the placement load metric)."""
        return sum(
            Prefix.parse(text).size for text in self.shard_prefixes[shard]
        )

    def spec(self) -> Tuple[Tuple[str, ...], ...]:
        """The plain-string spec this map was built from (picklable; a
        worker reconstructs the identical map with ``ShardMap(spec)``)."""
        return self.shard_prefixes

    @classmethod
    def from_configs(cls, shard_configs: Sequence) -> "ShardMap":
        """Build from per-shard :class:`HoneyfarmConfig` objects."""
        return cls([config.prefixes for config in shard_configs])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardMap shards={self.shard_count}"
            f" addresses={self._inventory.total_addresses}>"
        )
