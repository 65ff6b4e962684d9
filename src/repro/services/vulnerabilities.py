"""Service and vulnerability definitions.

Packets carry semantic payload tags (see :mod:`repro.net.packet`); an
exploit is a payload of the form ``exploit:<worm-name>``. A
:class:`Vulnerability` binds such a tag to the service it compromises,
and a :class:`VulnerabilityCatalog` answers the only question the guest
model needs on the hot path: *does this packet compromise this service?*

The default catalog models the mid-2000s worm population the paper's
deployment would have observed — fast UDP worms (Slammer-class), TCP
service worms (Blaster/Sasser-class), and an HTTP worm (CodeRed-class) —
with parameters exposed so experiments can define synthetic worms freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet

__all__ = ["ServiceDef", "Vulnerability", "VulnerabilityCatalog", "EXPLOIT_PREFIX"]

EXPLOIT_PREFIX = "exploit:"
"""Payload tags starting with this are exploit attempts."""


@dataclass(frozen=True)
class ServiceDef:
    """A network service a personality exposes."""

    name: str
    protocol: int
    port: int
    banner: str = ""

    def __post_init__(self) -> None:
        if self.protocol not in (PROTO_TCP, PROTO_UDP):
            raise ValueError(f"service protocol must be TCP or UDP: {self.protocol!r}")
        if not (0 < self.port <= 65535):
            raise ValueError(f"service port out of range: {self.port!r}")


@dataclass(frozen=True)
class Vulnerability:
    """An exploitable flaw in a service.

    ``exploit_tag`` is the payload that triggers it (``exploit:slammer``);
    ``infection_pages`` is how many memory pages the resulting infection
    dirties (worm body, unpacked payload, scan state), which feeds the
    delta-virtualization memory results.
    """

    name: str
    protocol: int
    port: int
    exploit_tag: str
    infection_pages: int = 256
    destructive_disk_blocks: int = 0  # Witty-class: random disk corruption

    def __post_init__(self) -> None:
        if not self.exploit_tag.startswith(EXPLOIT_PREFIX):
            raise ValueError(
                f"exploit_tag must start with {EXPLOIT_PREFIX!r}: {self.exploit_tag!r}"
            )
        if self.infection_pages < 0:
            raise ValueError(f"infection_pages must be >= 0: {self.infection_pages!r}")
        if self.destructive_disk_blocks < 0:
            raise ValueError(
                f"destructive_disk_blocks must be >= 0: {self.destructive_disk_blocks!r}"
            )

    def triggered_by(self, packet: Packet) -> bool:
        """Whether ``packet`` is an exploit attempt against this flaw."""
        return (
            packet.protocol == self.protocol
            and packet.dst_port == self.port
            and packet.payload == self.exploit_tag
        )


class VulnerabilityCatalog:
    """Registry of vulnerabilities, indexed by (protocol, port) for the
    per-packet lookup and by name for workload configuration."""

    def __init__(self, vulnerabilities: Optional[Iterable[Vulnerability]] = None) -> None:
        self._by_name: Dict[str, Vulnerability] = {}
        self._by_endpoint: Dict[Tuple[int, int], List[Vulnerability]] = {}
        for vuln in vulnerabilities or []:
            self.register(vuln)

    def register(self, vuln: Vulnerability) -> None:
        if vuln.name in self._by_name:
            raise ValueError(f"duplicate vulnerability name: {vuln.name!r}")
        self._by_name[vuln.name] = vuln
        self._by_endpoint.setdefault((vuln.protocol, vuln.port), []).append(vuln)

    def get(self, name: str) -> Vulnerability:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def endpoints(self) -> List[Tuple[int, int]]:
        """Every ``(protocol, port)`` some registered vulnerability
        listens on — the only endpoints :meth:`match` can ever hit."""
        return list(self._by_endpoint)

    def match(self, packet: Packet) -> Optional[Vulnerability]:
        """The vulnerability this packet exploits, if any."""
        candidates = self._by_endpoint.get((packet.protocol, packet.dst_port))
        if not candidates:
            return None
        for vuln in candidates:
            if vuln.triggered_by(packet):
                return vuln
        return None

    @classmethod
    def default(cls) -> "VulnerabilityCatalog":
        """The mid-2000s catalog described in the module docstring."""
        return cls(
            [
                Vulnerability(
                    name="slammer",
                    protocol=PROTO_UDP,
                    port=1434,
                    exploit_tag="exploit:slammer",
                    infection_pages=64,  # single-packet worm, tiny resident body
                ),
                Vulnerability(
                    name="blaster",
                    protocol=PROTO_TCP,
                    port=135,
                    exploit_tag="exploit:blaster",
                    infection_pages=320,
                ),
                Vulnerability(
                    name="codered",
                    protocol=PROTO_TCP,
                    port=80,
                    exploit_tag="exploit:codered",
                    infection_pages=512,
                ),
                Vulnerability(
                    name="sasser",
                    protocol=PROTO_TCP,
                    port=445,
                    exploit_tag="exploit:sasser",
                    infection_pages=384,
                ),
                Vulnerability(
                    name="nimda",
                    protocol=PROTO_TCP,
                    port=80,
                    exploit_tag="exploit:nimda",
                    infection_pages=448,
                ),
                Vulnerability(
                    name="witty",
                    protocol=PROTO_UDP,
                    port=4000,
                    exploit_tag="exploit:witty",
                    infection_pages=48,  # tiny single-packet worm
                    destructive_disk_blocks=128,  # it corrupted random disk
                ),
            ]
        )

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VulnerabilityCatalog({self.names()})"
