"""Unit tests for packet records."""

from dataclasses import replace

import pytest

from repro.net.addr import IPAddress
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

SRC = IPAddress.parse("203.0.113.1")
DST = IPAddress.parse("10.16.0.5")


class TestTcpFlags:
    def test_is_syn(self):
        assert TcpFlags.SYN.is_syn
        assert not (TcpFlags.SYN | TcpFlags.ACK).is_syn
        assert not TcpFlags.ACK.is_syn

    def test_is_synack(self):
        assert (TcpFlags.SYN | TcpFlags.ACK).is_synack
        assert not TcpFlags.SYN.is_synack

    def test_flag_combination(self):
        combined = TcpFlags.PSH | TcpFlags.ACK
        assert combined & TcpFlags.PSH
        assert combined & TcpFlags.ACK
        assert not combined & TcpFlags.FIN


class TestPacketConstruction:
    def test_tcp_packet_defaults(self):
        p = tcp_packet(SRC, DST, 1234, 80)
        assert p.is_tcp and not p.is_udp and not p.is_icmp
        assert p.flags.is_syn
        assert p.size == 40

    def test_tcp_packet_size_includes_payload(self):
        p = tcp_packet(SRC, DST, 1234, 80, payload="GET /")
        assert p.size == 45

    def test_udp_packet(self):
        p = udp_packet(SRC, DST, 4000, 1434, payload="x" * 10)
        assert p.is_udp
        assert p.size == 38

    def test_icmp_packet(self):
        p = icmp_packet(SRC, DST)
        assert p.is_icmp
        assert p.icmp_type == ICMP_ECHO_REQUEST

    def test_port_validation(self):
        with pytest.raises(ValueError):
            Packet(src=SRC, dst=DST, protocol=PROTO_TCP, dst_port=70000)
        with pytest.raises(ValueError):
            Packet(src=SRC, dst=DST, protocol=PROTO_UDP, src_port=-1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=SRC, dst=DST, protocol=PROTO_TCP, size=-1)

    def test_packet_ids_are_unique(self):
        a = tcp_packet(SRC, DST, 1, 2)
        b = tcp_packet(SRC, DST, 1, 2)
        assert a.packet_id != b.packet_id


class TestPacketTransforms:
    def test_reply_template_swaps_endpoints(self):
        p = tcp_packet(SRC, DST, 1234, 80)
        r = p.reply_template()
        assert r.src == DST and r.dst == SRC
        assert r.src_port == 80 and r.dst_port == 1234
        assert r.protocol == PROTO_TCP

    def test_icmp_reply_is_echo_reply(self):
        r = icmp_packet(SRC, DST).reply_template()
        assert r.icmp_type == ICMP_ECHO_REPLY

    def test_with_destination_preserves_rest(self):
        p = udp_packet(SRC, DST, 53, 53, payload="q")
        other = IPAddress.parse("10.16.0.99")
        q = p.with_destination(other)
        assert q.dst == other
        assert q.packet_id != p.packet_id  # a new packet, not an alias
        assert replace(q, dst=p.dst, packet_id=p.packet_id) == p

    def test_decremented_ttl(self):
        p = tcp_packet(SRC, DST, 1, 2, flags=TcpFlags.PSH | TcpFlags.ACK, payload="x", size=99)
        q = p.decremented_ttl()
        assert q.ttl == p.ttl - 1
        assert replace(q, ttl=p.ttl) == p  # same packet (and id), one hop on

    def test_describe_formats(self):
        assert "TCP" in tcp_packet(SRC, DST, 1, 80).describe()
        assert "UDP" in udp_packet(SRC, DST, 1, 53).describe()
        assert "ICMP" in icmp_packet(SRC, DST).describe()
        assert "proto=47" in Packet(src=SRC, dst=DST, protocol=47).describe()
