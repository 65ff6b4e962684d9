"""Unit tests for border routers."""

import pytest

from repro.net.addr import IPAddress, Prefix
from repro.net.gre import GrePacket, GreTunnel, encapsulate
from repro.net.link import Link
from repro.net.packet import tcp_packet
from repro.net.router import BorderRouter

EXTERNAL = IPAddress.parse("203.0.113.1")
DARK = IPAddress.parse("10.16.0.9")
LIT = IPAddress.parse("10.17.0.9")
ROUTER_EP = IPAddress.parse("198.51.100.1")
GATEWAY_EP = IPAddress.parse("198.51.100.254")


@pytest.fixture
def tunnel():
    return GreTunnel(key=5, router_endpoint=ROUTER_EP, gateway_endpoint=GATEWAY_EP)


@pytest.fixture
def uplink_and_received(sim):
    received = []
    return Link(sim, received.append, propagation_delay=0.001), received


def make_router(tunnel, uplink, external_sink=None):
    return BorderRouter(
        tunnel,
        [Prefix.parse("10.16.0.0/16")],
        uplink,
        external_sink=external_sink,
    )


class TestDiversion:
    def test_dark_traffic_is_diverted_and_encapsulated(self, sim, tunnel, uplink_and_received):
        uplink, received = uplink_and_received
        router = make_router(tunnel, uplink)
        packet = tcp_packet(EXTERNAL, DARK, 1234, 445)
        assert router.receive_from_internet(packet) is True
        sim.run()
        assert len(received) == 1
        gre = received[0]
        assert isinstance(gre, GrePacket)
        assert gre.tunnel.key == 5
        assert gre.inner.dst == DARK

    def test_ttl_decremented_on_diversion(self, sim, tunnel, uplink_and_received):
        uplink, received = uplink_and_received
        router = make_router(tunnel, uplink)
        # The packet is the router's once received: read only what
        # left through the tunnel (a fresh packet leaves with TTL 64).
        router.receive_from_internet(tcp_packet(EXTERNAL, DARK, 1, 2))
        sim.run()
        assert received[0].inner.ttl == 63

    def test_lit_traffic_passes_through(self, sim, tunnel, uplink_and_received):
        uplink, received = uplink_and_received
        router = make_router(tunnel, uplink)
        assert router.receive_from_internet(tcp_packet(EXTERNAL, LIT, 1, 2)) is False
        sim.run()
        assert received == []
        assert router.metrics.counter("router.passthrough").value == 1

    def test_expired_ttl_dropped(self, sim, tunnel, uplink_and_received):
        uplink, __ = uplink_and_received
        router = make_router(tunnel, uplink)
        dead = tcp_packet(EXTERNAL, DARK, 1, 2)
        dead.ttl = 0
        assert router.receive_from_internet(dead) is False
        assert router.metrics.counter("router.ttl_expired").value == 1

    def test_requires_at_least_one_prefix(self, sim, tunnel, uplink_and_received):
        uplink, __ = uplink_and_received
        with pytest.raises(ValueError):
            BorderRouter(tunnel, [], uplink)


class TestReturnPath:
    def test_reply_decapsulated_to_external_sink(self, sim, tunnel, uplink_and_received):
        uplink, __ = uplink_and_received
        out = []
        router = make_router(tunnel, uplink, external_sink=out.append)
        reply = tcp_packet(DARK, EXTERNAL, 445, 1234)
        router.receive_from_gateway(encapsulate(tunnel, reply))
        assert out == [reply]

    def test_wrong_tunnel_key_rejected(self, sim, tunnel, uplink_and_received):
        uplink, __ = uplink_and_received
        out = []
        router = make_router(tunnel, uplink, external_sink=out.append)
        other = GreTunnel(key=99, router_endpoint=ROUTER_EP, gateway_endpoint=GATEWAY_EP)
        router.receive_from_gateway(encapsulate(other, tcp_packet(DARK, EXTERNAL, 1, 2)))
        assert out == []
        assert router.metrics.counter("router.wrong_tunnel").value == 1
