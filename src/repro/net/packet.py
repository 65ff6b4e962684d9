"""Packet records: IP header fields plus TCP/UDP/ICMP specifics.

Packets are modelled as records, not byte strings: the honeyfarm's
behaviour depends on header fields (addresses, ports, protocol, TCP flags)
and on an opaque ``payload`` tag that the guest/worm models interpret
(e.g. ``"exploit:slammer"``), never on wire encoding. Payload *size* is
carried separately so byte counters and bandwidth models still work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntFlag
from typing import Optional

from repro.net.addr import IPAddress

__all__ = [
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "ICMP_ECHO_REQUEST",
    "ICMP_ECHO_REPLY",
    "TcpFlags",
    "Packet",
    "tcp_packet",
    "udp_packet",
    "icmp_packet",
]

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0

_packet_ids = itertools.count(1)


class TcpFlags(IntFlag):
    """TCP control flags; combinations mirror the wire encoding."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    @property
    def is_syn(self) -> bool:
        """A connection-initiating SYN (SYN set, ACK clear).

        Works on the raw int value: ``IntFlag.__and__`` constructs a new
        flag member per call, which is measurable on the per-packet path.
        """
        return (self._value_ & 0x12) == 0x02  # SYN without ACK

    @property
    def is_synack(self) -> bool:
        return (self._value_ & 0x12) == 0x12  # SYN and ACK both set

    @property
    def has_rst(self) -> bool:
        return bool(self._value_ & 0x04)


@dataclass(slots=True)
class Packet:
    """One simulated IP packet.

    ``payload`` is a semantic tag (service request, exploit marker, banner)
    interpreted by guests and workloads; ``size`` is the wire size in bytes
    used by byte counters and the link bandwidth model. ``ttl`` decrements
    at each router hop, guarding against forwarding loops (the containment
    reflection path can otherwise create one).
    """

    src: IPAddress
    dst: IPAddress
    protocol: int
    src_port: int = 0
    dst_port: int = 0
    flags: TcpFlags = TcpFlags.NONE
    icmp_type: int = 0
    payload: str = ""
    size: int = 40
    ttl: int = 64
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.protocol in (PROTO_TCP, PROTO_UDP):
            for port in (self.src_port, self.dst_port):
                if not (0 <= port <= 65535):
                    raise ValueError(f"port out of range: {port!r}")
        if self.size < 0:
            raise ValueError(f"packet size must be non-negative: {self.size!r}")

    @property
    def is_tcp(self) -> bool:
        return self.protocol == PROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.protocol == PROTO_UDP

    @property
    def is_icmp(self) -> bool:
        return self.protocol == PROTO_ICMP

    def reply_template(self, payload: str = "", size: int = 40) -> "Packet":
        """A packet going the other way on the same flow (ports swapped)."""
        return Packet(
            src=self.dst,
            dst=self.src,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
            icmp_type=ICMP_ECHO_REPLY if self.is_icmp else 0,
            payload=payload,
            size=size,
        )

    def with_destination(self, dst: IPAddress) -> "Packet":
        """Copy of this packet re-addressed to ``dst`` (used by the
        gateway's reflection/proxy containment actions)."""
        return Packet(
            self.src, dst, self.protocol, self.src_port, self.dst_port,
            self.flags, self.icmp_type, self.payload, self.size, self.ttl,
        )

    def decremented_ttl(self) -> "Packet":
        """Copy with TTL reduced by one hop."""
        return Packet(
            self.src, self.dst, self.protocol, self.src_port, self.dst_port,
            self.flags, self.icmp_type, self.payload, self.size, self.ttl - 1,
            self.packet_id,
        )

    def describe(self) -> str:
        """One-line human-readable rendering for logs and traces."""
        if self.is_tcp:
            flag_names = str(self.flags) if self.flags else "-"
            return (
                f"TCP {self.src}:{self.src_port} > {self.dst}:{self.dst_port}"
                f" [{flag_names}] {self.payload or ''}".rstrip()
            )
        if self.is_udp:
            return (
                f"UDP {self.src}:{self.src_port} > {self.dst}:{self.dst_port}"
                f" {self.payload or ''}".rstrip()
            )
        if self.is_icmp:
            kind = "echo-req" if self.icmp_type == ICMP_ECHO_REQUEST else "echo-rep"
            return f"ICMP {self.src} > {self.dst} {kind}"
        return f"IP(proto={self.protocol}) {self.src} > {self.dst}"


def tcp_packet(
    src: IPAddress,
    dst: IPAddress,
    src_port: int,
    dst_port: int,
    flags: TcpFlags = TcpFlags.SYN,
    payload: str = "",
    size: Optional[int] = None,
) -> Packet:
    """Convenience constructor for TCP packets; size defaults to a 40-byte
    header plus one byte per payload-tag character (a stable proxy for
    payload length)."""
    return Packet(
        src=src,
        dst=dst,
        protocol=PROTO_TCP,
        src_port=src_port,
        dst_port=dst_port,
        flags=flags,
        payload=payload,
        size=size if size is not None else 40 + len(payload),
    )


def udp_packet(
    src: IPAddress,
    dst: IPAddress,
    src_port: int,
    dst_port: int,
    payload: str = "",
    size: Optional[int] = None,
) -> Packet:
    """Convenience constructor for UDP packets."""
    return Packet(
        src=src,
        dst=dst,
        protocol=PROTO_UDP,
        src_port=src_port,
        dst_port=dst_port,
        payload=payload,
        size=size if size is not None else 28 + len(payload),
    )


def icmp_packet(
    src: IPAddress,
    dst: IPAddress,
    icmp_type: int = ICMP_ECHO_REQUEST,
    size: int = 64,
) -> Packet:
    """Convenience constructor for ICMP echo packets."""
    return Packet(src=src, dst=dst, protocol=PROTO_ICMP, icmp_type=icmp_type, size=size)
