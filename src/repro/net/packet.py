"""Packet records: IP header fields plus TCP/UDP/ICMP specifics.

Packets are modelled as records, not byte strings: the honeyfarm's
behaviour depends on header fields (addresses, ports, protocol, TCP flags)
and on an opaque ``payload`` tag that the guest/worm models interpret
(e.g. ``"exploit:slammer"``), never on wire encoding. Payload *size* is
carried separately so byte counters and bandwidth models still work.

One packet, one owner
---------------------
A ``Packet`` is mutable, and the farm rewrites packets in place: the
gateway decrements the TTL at every hop, re-addresses a reflected scan
to its internal stand-in, and translates a reflected reply's source
back. That is safe because a packet has one owner at a time. A packet
passed to any of these *belongs to the receiver*, and the sender does
not read or write it afterwards:

* ``Gateway.process_inbound``, ``Gateway.receive_intershard`` and
  ``Gateway.emit_from_vm`` (a guest's ``transmit``);
* the backend's ``deliver`` / ``deliver_replay``, and
  ``DnsServer.handle_query`` (which logs the query);
* ``ShardRunner.send`` and the gateway's ``external_sink``;
* ``encapsulate`` / ``Link.deliver``, and ``Simulator.schedule`` (the
  scheduled callback receives it).

Some callees only *borrow* a packet for the duration of the call and
keep no reference to it: the ``packet_tap``, ``policy.decide`` and
``flows.observe``. ``FidelityLadder.consider`` borrows a packet it
promotes; one it absorbs joins its address's replay chain in the
gateway's own address table, where nothing writes it. The recorder
is never handed a packet, only fields rendered from one.

An owner may rewrite its own packet in place. Anything it logs about
the packet's *old* fields (a recorder event naming the original
destination, say) is read before the rewrite. The rule is checked by
``tests/test_packet_ownership.py``, which hands every receiver a copy,
scribbles the sender's original, and requires the same outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntFlag
from typing import Optional

from repro.net.addr import dotted

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


@dataclass(slots=True, init=False)
class Packet:
    """One simulated IP packet.

    ``payload`` is a semantic tag (service request, exploit marker, banner)
    interpreted by guests and workloads; ``size`` is the wire size in bytes
    used by byte counters and the link bandwidth model. ``ttl`` decrements
    at each router hop, guarding against forwarding loops (the containment
    reflection path can otherwise create one). A packet has no identity
    beyond the object: ``==`` compares fields, and "the same packet"
    means ``is``. Who may write it is the module's ownership rule.

    The dataclass supplies ``==``, ``repr`` and :func:`dataclasses.replace`;
    ``__init__`` is written out, because every simulated packet is built
    through it and the generated one pays a validation hook call on top
    of the same two checks. Hot call sites pass the fields positionally.
    """

    src: int
    dst: int
    protocol: int
    src_port: int
    dst_port: int
    flags: TcpFlags
    icmp_type: int
    payload: str
    size: int
    ttl: int

    def __init__(
        self,
        src: int,
        dst: int,
        protocol: int,
        src_port: int = 0,
        dst_port: int = 0,
        flags: TcpFlags = TcpFlags.NONE,
        icmp_type: int = 0,
        payload: str = "",
        size: int = 40,
        ttl: int = 64,
    ) -> None:
        if protocol == PROTO_TCP or protocol == PROTO_UDP:
            if not 0 <= src_port <= 65535:
                raise ValueError(f"port out of range: {src_port!r}")
            if not 0 <= dst_port <= 65535:
                raise ValueError(f"port out of range: {dst_port!r}")
        if size < 0:
            raise ValueError(f"packet size must be non-negative: {size!r}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.src_port = src_port
        self.dst_port = dst_port
        self.flags = flags
        self.icmp_type = icmp_type
        self.payload = payload
        self.size = size
        self.ttl = ttl

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
            self.dst, self.src, self.protocol, self.dst_port, self.src_port,
            TcpFlags.NONE, ICMP_ECHO_REPLY if self.protocol == PROTO_ICMP else 0,
            payload, size,
        )

    def describe(self) -> str:
        """One-line human-readable rendering for logs and traces."""
        src, dst = dotted(self.src), dotted(self.dst)
        if self.is_tcp:
            flag_names = str(self.flags) if self.flags else "-"
            return (
                f"TCP {src}:{self.src_port} > {dst}:{self.dst_port}"
                f" [{flag_names}] {self.payload or ''}".rstrip()
            )
        if self.is_udp:
            return (
                f"UDP {src}:{self.src_port} > {dst}:{self.dst_port}"
                f" {self.payload or ''}".rstrip()
            )
        if self.is_icmp:
            kind = "echo-req" if self.icmp_type == ICMP_ECHO_REQUEST else "echo-rep"
            return f"ICMP {src} > {dst} {kind}"
        return f"IP(proto={self.protocol}) {src} > {dst}"


def tcp_packet(
    src: int,
    dst: int,
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
    src: int,
    dst: int,
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
    src: int,
    dst: int,
    icmp_type: int = ICMP_ECHO_REQUEST,
    size: int = 64,
) -> Packet:
    """Convenience constructor for ICMP echo packets."""
    return Packet(src=src, dst=dst, protocol=PROTO_ICMP, icmp_type=icmp_type, size=size)
