"""GRE tunnelling between border routers and the honeyfarm gateway.

In the deployed system, participating networks configure their border
routers to encapsulate packets destined for dark prefixes in GRE and send
them to the gateway, which decapsulates, processes, and (for honeypot
replies) re-encapsulates so replies exit through the original network and
keep the illusion intact. We model the encapsulation explicitly — tunnel
key, outer endpoints, the 24-byte overhead — because the gateway's
bookkeeping (which tunnel a packet arrived on, where replies must return)
is part of the paper's architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.packet import Packet

__all__ = ["GRE_OVERHEAD_BYTES", "GreTunnel", "GrePacket", "encapsulate", "decapsulate"]

# Outer IPv4 header (20 bytes) + GRE header with key (8 bytes).
GRE_OVERHEAD_BYTES = 28


@dataclass(frozen=True)
class GreTunnel:
    """One configured tunnel from a border router to the gateway.

    ``key`` identifies the tunnel (and hence the contributing network) in
    the GRE header; the gateway uses it to return honeypot replies through
    the network that owns the impersonated address.
    """

    key: int
    router_endpoint: int
    gateway_endpoint: int

    def __post_init__(self) -> None:
        if not (0 <= self.key <= 0xFFFFFFFF):
            raise ValueError(f"GRE key out of range: {self.key!r}")


@dataclass(frozen=True)
class GrePacket:
    """An inner packet wrapped in a GRE envelope."""

    tunnel: GreTunnel
    inner: Packet

    @property
    def size(self) -> int:
        """Wire size including encapsulation overhead."""
        return self.inner.size + GRE_OVERHEAD_BYTES


def encapsulate(tunnel: GreTunnel, packet: Packet) -> GrePacket:
    """Wrap ``packet`` for transit over ``tunnel``."""
    return GrePacket(tunnel=tunnel, inner=packet)


def decapsulate(gre: GrePacket) -> Packet:
    """Unwrap the inner packet (the envelope is discarded)."""
    return gre.inner
