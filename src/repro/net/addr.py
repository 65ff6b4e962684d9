"""IPv4 addresses, CIDR prefixes, and the honeyfarm's address inventory.

Inside the farm an address is a plain 32-bit ``int``: packets, flow
keys, the VM side's maps and the inter-shard codec carry values, which
hash, compare and sit in arrays as they are. Text exists only at the
edges. :meth:`IPAddress.parse` reads a dotted quad from a config, the
CLI or a trace file; :func:`dotted` writes one for recorder events,
reports and trace files. :class:`IPAddress` is an ``int`` that prints
as a dotted quad, kept for the values a report prints as they are (an
infection record's ``source`` and ``victim``).

The :class:`AddressSpaceInventory` models what the paper's gateway must
know: which prefixes of dark space have been diverted to the honeyfarm
(potentially many /16s), so it can tell "ours" from stray traffic and
can allocate honeypot identities inside each prefix.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

__all__ = ["IPAddress", "Prefix", "AddressSpaceInventory", "dotted"]

_MAX_IPV4 = (1 << 32) - 1


def dotted(value: int) -> str:
    """The address ``value`` in dotted-quad notation.

    >>> dotted(167772161)
    '10.0.0.1'
    """
    return f"{value >> 24}.{value >> 16 & 0xFF}.{value >> 8 & 0xFF}.{value & 0xFF}"


class IPAddress(int):
    """An IPv4 address value that prints as a dotted quad.

    >>> IPAddress.parse("10.0.0.1") == 167772161
    True
    >>> str(IPAddress(167772161))
    '10.0.0.1'
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "IPAddress":
        if not 0 <= value <= _MAX_IPV4:
            raise ValueError(f"IPv4 address out of range: {value!r}")
        return int.__new__(cls, value)

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse dotted-quad notation. Octets are ASCII digits only:
        ``str.isdigit`` and ``int`` also take other scripts' digits."""
        parts = text.split(".")
        if len(parts) == 4 and text.isascii():
            a, b, c, d = parts
            if a.isdigit() and b.isdigit() and c.isdigit() and d.isdigit():
                a = int(a)
                b = int(b)
                c = int(c)
                d = int(d)
                if a < 256 and b < 256 and c < 256 and d < 256:
                    return cls(a << 24 | b << 16 | c << 8 | d)
                raise ValueError(f"octet out of range in {text!r}")
        raise ValueError(f"malformed IPv4 address: {text!r}")

    def __str__(self) -> str:
        return dotted(self)

    def __repr__(self) -> str:
        return f"IPAddress('{dotted(self)}')"


class Prefix:
    """A CIDR prefix, e.g. ``10.1.0.0/16``; ``network`` is an address value.

    >>> p = Prefix.parse("10.1.0.0/16")
    >>> p.contains(IPAddress.parse("10.1.2.3"))
    True
    >>> p.size
    65536
    """

    __slots__ = ("network", "length", "_mask_value", "_size")

    def __init__(self, network: int, length: int) -> None:
        if not (0 <= length <= 32):
            raise ValueError(f"prefix length out of range: {length!r}")
        mask = self._mask(length)
        if network & ~mask & _MAX_IPV4:
            raise ValueError(
                f"{dotted(network)}/{length} has host bits set; not a valid prefix"
            )
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)
        # Precomputed: mask/size sit on the per-packet membership path.
        object.__setattr__(self, "_mask_value", mask)
        object.__setattr__(self, "_size", 1 << (32 - length))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    @staticmethod
    def _mask(length: int) -> int:
        return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4 if length else 0

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation (ASCII digits only)."""
        if "/" not in text:
            raise ValueError(f"prefix must contain '/': {text!r}")
        net, __, length = text.partition("/")
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"malformed prefix length in {text!r}")
        return cls(int(IPAddress.parse(net)), int(length))

    @property
    def mask(self) -> int:
        return self._mask_value

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return self._size

    def contains(self, addr: int) -> bool:
        return (addr & self._mask_value) == self.network

    def address_at(self, index: int) -> int:
        """The ``index``-th address inside the prefix (0-based)."""
        if not (0 <= index < self.size):
            raise IndexError(f"index {index} outside {self}")
        return self.network + index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.network == other.network
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __str__(self) -> str:
        return f"{dotted(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix('{self}')"


class AddressSpaceInventory:
    """The set of dark prefixes diverted to the honeyfarm.

    The gateway consults this on every packet: traffic to an address
    outside every registered prefix is not honeyfarm traffic and is
    counted and dropped. Registered prefixes never overlap, so membership
    is a binary search over prefix ranges sorted by start address —
    O(log n) per packet however many /16s the farm impersonates — and
    :meth:`flat_index` adds one precomputed cumulative base instead of
    summing prefix sizes per call.
    """

    def __init__(self, prefixes: Optional[Iterable[Prefix]] = None) -> None:
        # Registration order (defines the flat-index layout):
        self._prefixes: List[Prefix] = []
        self._flat_bases: List[int] = []  # cumulative base per registered prefix
        self._flat_offsets: List[int] = []  # network - base, per registered prefix
        self._total = 0
        # Sorted-by-start parallel arrays for binary-search membership:
        self._starts: List[int] = []
        self._ends: List[int] = []  # inclusive last address per range
        self._sorted_prefixes: List[Prefix] = []
        self._sorted_bases: List[int] = []  # flat base of the range's prefix
        for prefix in prefixes or []:
            self.add(prefix)

    def add(self, prefix: Prefix) -> None:
        """Register a diverted prefix; overlapping registrations are
        rejected to keep the address→VM mapping unambiguous."""
        start = prefix.network
        end = start + prefix.size - 1
        i = bisect.bisect_left(self._starts, start)
        # Prefixes either nest or are disjoint, so overlap can only be
        # with the nearest range on either side of the insertion point.
        if i > 0 and self._ends[i - 1] >= start:
            raise ValueError(
                f"{prefix} overlaps already-registered {self._sorted_prefixes[i - 1]}"
            )
        if i < len(self._starts) and self._starts[i] <= end:
            raise ValueError(
                f"{prefix} overlaps already-registered {self._sorted_prefixes[i]}"
            )
        base = self._total
        self._prefixes.append(prefix)
        self._flat_bases.append(base)
        self._flat_offsets.append(start - base)
        self._total += prefix.size
        self._starts.insert(i, start)
        self._ends.insert(i, end)
        self._sorted_prefixes.insert(i, prefix)
        self._sorted_bases.insert(i, base)

    @property
    def prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(self._prefixes)

    @property
    def total_addresses(self) -> int:
        """Total dark addresses the farm impersonates."""
        return self._total

    def lookup(self, addr: int) -> Optional[Prefix]:
        """The registered prefix covering ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0 and addr <= self._ends[i]:
            return self._sorted_prefixes[i]
        return None

    def covers(self, addr: int) -> bool:
        """Whether ``addr`` is in a registered prefix."""
        i = bisect.bisect_right(self._starts, addr) - 1
        return i >= 0 and addr <= self._ends[i]

    def flat_index(self, addr: int) -> int:
        """A dense 0-based index over all registered addresses, in
        registration order — used to map addresses onto the vulnerable-host
        bitmap in epidemic experiments."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0 and addr <= self._ends[i]:
            return self._sorted_bases[i] + (addr - self._starts[i])
        raise ValueError(f"{dotted(addr)} is not in any registered prefix")

    @property
    def flat_layout(self) -> Tuple[List[int], List[int]]:
        """``(bases, offsets)``, per registered prefix: its first flat
        index and ``network - base``. Bases are strictly increasing, so
        the address at flat index ``i`` is
        ``i + offsets[bisect_right(bases, i) - 1]`` — one bisect and one
        add, for a loop that maps many indices without a call each."""
        return self._flat_bases, self._flat_offsets

    def address_at_flat_index(self, index: int) -> int:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= index < self._total:
            raise IndexError(f"flat index {index} outside inventory of {self._total}")
        return index + self._flat_offsets[bisect.bisect_right(self._flat_bases, index) - 1]

    def __len__(self) -> int:
        return len(self._prefixes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AddressSpaceInventory(prefixes={len(self._prefixes)},"
            f" addresses={self.total_addresses})"
        )
