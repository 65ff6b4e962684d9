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

    @pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_UDP])
    @pytest.mark.parametrize("field", ["src_port", "dst_port"])
    @pytest.mark.parametrize("port", [-1, 65536])
    def test_each_port_is_checked_on_tcp_and_udp(self, protocol, field, port):
        with pytest.raises(ValueError, match=f"port out of range: {port}$"):
            Packet(SRC, DST, protocol, **{field: port})

    @pytest.mark.parametrize("port", [0, 65535])
    def test_port_bounds_are_inclusive(self, port):
        p = Packet(SRC, DST, PROTO_UDP, port, port)
        assert (p.src_port, p.dst_port) == (port, port)

    @pytest.mark.parametrize("protocol", [PROTO_ICMP, 47])
    def test_portless_protocols_skip_the_port_check(self, protocol):
        p = Packet(SRC, DST, protocol, 70000, -1)
        assert (p.src_port, p.dst_port) == (70000, -1)

    @pytest.mark.parametrize("protocol", [PROTO_TCP, PROTO_ICMP])
    def test_negative_size_rejected_on_any_protocol(self, protocol):
        with pytest.raises(ValueError, match="packet size must be non-negative: -1"):
            Packet(SRC, DST, protocol, size=-1)
        assert Packet(SRC, DST, protocol, size=0).size == 0

    def test_defaults(self):
        p = Packet(SRC, DST, PROTO_TCP)
        assert (p.src_port, p.dst_port, p.flags, p.icmp_type) == (0, 0, TcpFlags.NONE, 0)
        assert (p.payload, p.size, p.ttl) == ("", 40, 64)

    def test_positional_and_keyword_construction_agree(self):
        positional = Packet(SRC, DST, PROTO_TCP, 1, 2, TcpFlags.SYN, 0, "x", 41, 9)
        keyword = Packet(
            src=SRC, dst=DST, protocol=PROTO_TCP, src_port=1, dst_port=2,
            flags=TcpFlags.SYN, icmp_type=0, payload="x", size=41, ttl=9,
        )
        assert positional == keyword

    def test_equality_covers_every_field(self):
        p = tcp_packet(SRC, DST, 1, 2, payload="x")
        assert p == replace(p)
        assert p != replace(p, ttl=p.ttl - 1)
        twin = tcp_packet(SRC, DST, 1, 2, payload="x")
        assert p == twin and p is not twin  # fields, not identity

    def test_replace_copies_the_fields_and_validates(self):
        p = udp_packet(SRC, DST, 53, 53)
        q = replace(p, dst_port=54)
        assert (q.dst_port, q.src) == (54, p.src) and q is not p
        assert replace(q, dst_port=53) == p
        with pytest.raises(ValueError, match="port out of range: 70000"):
            replace(p, dst_port=70000)

    def test_repr_names_the_fields(self):
        p = Packet(SRC, DST, PROTO_UDP, 1, 2, ttl=5)
        assert repr(p).startswith("Packet(src=")
        assert "dst_port=2" in repr(p) and repr(p).endswith("ttl=5)")

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            Packet(SRC, DST, PROTO_TCP).extra = 1


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

    def test_describe_formats(self):
        assert "TCP" in tcp_packet(SRC, DST, 1, 80).describe()
        assert "UDP" in udp_packet(SRC, DST, 1, 53).describe()
        assert "ICMP" in icmp_packet(SRC, DST).describe()
        assert "proto=47" in Packet(src=SRC, dst=DST, protocol=47).describe()
