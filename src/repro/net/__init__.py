"""Network substrate: addresses, packets, tunnels, flows, links, routers.

Potemkin's front end is a routing problem: border routers at participating
networks tunnel traffic destined for dark (unused) address space to the
honeyfarm gateway over GRE, and the gateway dispatches each packet by
destination IP. This package provides those pieces as plain-Python models:

* :mod:`repro.net.addr` — IPv4 addresses (plain ints) and CIDR prefixes.
* :mod:`repro.net.packet` — IP/TCP/UDP/ICMP packet records.
* :mod:`repro.net.gre` — GRE encapsulation as used by the tunnels.
* :mod:`repro.net.flow` — 5-tuple flow keys and a timeout-based flow table.
* :mod:`repro.net.link` — point-to-point links with latency/bandwidth/loss.
* :mod:`repro.net.router` — border routers that divert darknet traffic.
"""

from repro.net.addr import IPAddress, Prefix, AddressSpaceInventory, dotted
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    TcpFlags,
    icmp_packet,
    tcp_packet,
    udp_packet,
)
from repro.net.gre import GrePacket, GreTunnel, decapsulate, encapsulate
from repro.net.flow import FlowRecord, FlowTable, flow_key, packet_flow_key
from repro.net.link import Link
from repro.net.router import BorderRouter

__all__ = [
    "AddressSpaceInventory",
    "BorderRouter",
    "FlowRecord",
    "FlowTable",
    "GrePacket",
    "GreTunnel",
    "ICMP_ECHO_REPLY",
    "ICMP_ECHO_REQUEST",
    "IPAddress",
    "Link",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "Prefix",
    "TcpFlags",
    "decapsulate",
    "dotted",
    "encapsulate",
    "flow_key",
    "icmp_packet",
    "packet_flow_key",
    "tcp_packet",
    "udp_packet",
]
