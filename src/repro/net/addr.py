"""IPv4 addresses, CIDR prefixes, and the honeyfarm's address inventory.

Addresses are immutable wrappers over a 32-bit int, which keeps the
per-packet fast path (hashing, comparison, prefix membership) cheap — the
simulator pushes millions of packets through these.

The :class:`AddressSpaceInventory` models what the paper's gateway must
know: which prefixes of dark space have been diverted to the honeyfarm
(potentially many /16s), so it can tell "ours" from stray traffic and
can allocate honeypot identities inside each prefix.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = ["IPAddress", "Prefix", "AddressSpaceInventory"]

_MAX_IPV4 = (1 << 32) - 1


class IPAddress:
    """An immutable IPv4 address backed by an int.

    >>> IPAddress.parse("10.0.0.1").value
    167772161
    >>> str(IPAddress(167772161))
    '10.0.0.1'
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not (0 <= value <= _MAX_IPV4):
            raise ValueError(f"IPv4 address out of range: {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IPAddress is immutable")

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse dotted-quad notation.

        Unrolled, and built without ``__init__`` (four octets below 256
        cannot leave the range it checks): a large replay parses ~10^5
        addresses, once each."""
        parts = text.split(".")
        if len(parts) == 4:
            a, b, c, d = parts
            if a.isdigit() and b.isdigit() and c.isdigit() and d.isdigit():
                a = int(a)
                b = int(b)
                c = int(c)
                d = int(d)
                if a < 256 and b < 256 and c < 256 and d < 256:
                    addr = object.__new__(cls)
                    object.__setattr__(addr, "value", a << 24 | b << 16 | c << 8 | d)
                    return addr
                raise ValueError(f"octet out of range in {text!r}")
        raise ValueError(f"malformed IPv4 address: {text!r}")

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPAddress) and self.value == other.value

    def __lt__(self, other: "IPAddress") -> bool:
        return self.value < other.value

    def __le__(self, other: "IPAddress") -> bool:
        return self.value <= other.value

    def __hash__(self) -> int:
        # The raw value is its own hash (ints hash to themselves), saving a
        # call on the per-packet path where addresses key every dict.
        return self.value

    def offset(self, delta: int) -> "IPAddress":
        """The address ``delta`` positions away (may be negative)."""
        return IPAddress(self.value + delta)


class Prefix:
    """A CIDR prefix, e.g. ``10.1.0.0/16``.

    >>> p = Prefix.parse("10.1.0.0/16")
    >>> p.contains(IPAddress.parse("10.1.2.3"))
    True
    >>> p.size
    65536
    """

    __slots__ = ("network", "length", "_mask_value", "_size")

    def __init__(self, network: IPAddress, length: int) -> None:
        if not (0 <= length <= 32):
            raise ValueError(f"prefix length out of range: {length!r}")
        mask = self._mask(length)
        if network.value & ~mask & _MAX_IPV4:
            raise ValueError(
                f"{network}/{length} has host bits set; not a valid prefix"
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
        """Parse ``a.b.c.d/len`` notation."""
        if "/" not in text:
            raise ValueError(f"prefix must contain '/': {text!r}")
        net, __, length = text.partition("/")
        return cls(IPAddress.parse(net), int(length))

    @property
    def mask(self) -> int:
        return self._mask_value

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return self._size

    @property
    def first(self) -> IPAddress:
        return self.network

    @property
    def last(self) -> IPAddress:
        return IPAddress(self.network.value + self._size - 1)

    def contains(self, addr: IPAddress) -> bool:
        return (addr.value & self._mask_value) == self.network.value

    def address_at(self, index: int) -> IPAddress:
        """The ``index``-th address inside the prefix (0-based)."""
        if not (0 <= index < self.size):
            raise IndexError(f"index {index} outside {self}")
        return IPAddress(self.network.value + index)

    def index_of(self, addr: IPAddress) -> int:
        """Inverse of :meth:`address_at`."""
        if not self.contains(addr):
            raise ValueError(f"{addr} is not in {self}")
        return addr.value - self.network.value

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other.network) or other.contains(self.network)

    def addresses(self) -> Iterator[IPAddress]:
        """Iterate every address in the prefix (use only on small prefixes)."""
        for i in range(self.size):
            yield IPAddress(self.network.value + i)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.network == other.network
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.network.value, self.length))

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

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
        start = prefix.network.value
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

    def lookup(self, addr: IPAddress) -> Optional[Prefix]:
        """The registered prefix covering ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr.value) - 1
        if i >= 0 and addr.value <= self._ends[i]:
            return self._sorted_prefixes[i]
        return None

    def covers(self, addr: IPAddress) -> bool:
        i = bisect.bisect_right(self._starts, addr.value) - 1
        return i >= 0 and addr.value <= self._ends[i]

    def flat_index(self, addr: IPAddress) -> int:
        """A dense 0-based index over all registered addresses, in
        registration order — used to map addresses onto the vulnerable-host
        bitmap in epidemic experiments."""
        value = addr.value
        i = bisect.bisect_right(self._starts, value) - 1
        if i >= 0 and value <= self._ends[i]:
            return self._sorted_bases[i] + (value - self._starts[i])
        raise ValueError(f"{addr} is not in any registered prefix")

    def address_at_flat_index(self, index: int) -> IPAddress:
        """Inverse of :meth:`flat_index`."""
        if index < 0:
            raise IndexError(f"negative flat index: {index}")
        if index >= self._total:
            raise IndexError(f"flat index {index} beyond inventory of {self._total}")
        # Bases are strictly increasing in registration order, so the
        # owning prefix is the rightmost base at or below the index.
        i = bisect.bisect_right(self._flat_bases, index) - 1
        return self._prefixes[i].address_at(index - self._flat_bases[i])

    def __len__(self) -> int:
        return len(self._prefixes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AddressSpaceInventory(prefixes={len(self._prefixes)},"
            f" addresses={self.total_addresses})"
        )
