"""Unit tests for flow tracking, GRE encapsulation, and links."""

import pytest

from repro.net.addr import IPAddress
from repro.net.flow import FlowTable, packet_flow_key
from repro.net.gre import GRE_OVERHEAD_BYTES, GreTunnel, decapsulate, encapsulate
from repro.net.link import Link
from repro.net.packet import tcp_packet, udp_packet
from repro.sim.rand import RandomStream

A = IPAddress.parse("203.0.113.1")
B = IPAddress.parse("10.16.0.5")


class TestFlowKey:
    def test_both_directions_map_to_same_key(self):
        fwd = tcp_packet(A, B, 1234, 80)
        rev = tcp_packet(B, A, 80, 1234)
        assert packet_flow_key(fwd) == packet_flow_key(rev)

    def test_different_ports_differ(self):
        k1 = packet_flow_key(tcp_packet(A, B, 1234, 80))
        k2 = packet_flow_key(tcp_packet(A, B, 1235, 80))
        assert k1 != k2

    def test_different_protocols_differ(self):
        k1 = packet_flow_key(tcp_packet(A, B, 53, 53))
        k2 = packet_flow_key(udp_packet(A, B, 53, 53))
        assert k1 != k2

    def test_key_is_hashable_and_stable(self):
        k = packet_flow_key(tcp_packet(A, B, 1, 2))
        assert hash(k) == hash(packet_flow_key(tcp_packet(A, B, 1, 2)))


class TestFlowTable:
    def test_observe_creates_then_reuses(self):
        table = FlowTable(idle_timeout=10.0)
        p = tcp_packet(A, B, 1234, 80)
        row1, created1 = table.observe(p, now=0.0)
        rec1 = table.record(row1)
        row2, created2 = table.observe(p.reply_template(), now=1.0)
        rec2 = table.record(row2)
        assert created1 and not created2
        assert (rec1.row, rec1.serial) == (rec2.row, rec2.serial)
        assert rec1.packets == 2
        assert rec1.initiator == A

    def test_byte_accounting(self):
        table = FlowTable(idle_timeout=10.0)
        p = tcp_packet(A, B, 1, 2, payload="xxxx")
        rec = table.record(table.observe(p, now=0.0)[0])
        assert rec.bytes == p.size

    def test_idle_expiry_on_lookup(self):
        table = FlowTable(idle_timeout=5.0)
        p = tcp_packet(A, B, 1234, 80)
        table.observe(p, now=0.0)
        assert table.lookup(p, now=4.9) is not None
        assert table.lookup(p, now=5.1) is None
        assert table.expired_total == 1

    def test_new_flow_after_expiry_has_fresh_counters(self):
        table = FlowTable(idle_timeout=5.0)
        p = tcp_packet(A, B, 1234, 80)
        table.observe(p, now=0.0)
        row, created = table.observe(p, now=100.0)
        assert created
        assert table.record(row).packets == 1

    def test_activity_refreshes_timeout(self):
        table = FlowTable(idle_timeout=5.0)
        p = tcp_packet(A, B, 1234, 80)
        table.observe(p, now=0.0)
        table.observe(p, now=4.0)
        assert table.lookup(p, now=8.0) is not None  # 4s idle, not 8s

    def test_expire_idle_sweep(self):
        table = FlowTable(idle_timeout=5.0)
        table.observe(tcp_packet(A, B, 1, 80), now=0.0)
        table.observe(tcp_packet(A, B, 2, 80), now=8.0)
        expired = table.expire_idle(now=10.0)
        assert len(expired) == 1
        assert len(table) == 1

    def test_drop_vm_removes_bound_flows(self):
        table = FlowTable(idle_timeout=100.0)
        rec1 = table.record(table.observe(tcp_packet(A, B, 1, 80), now=0.0)[0])
        rec2 = table.record(table.observe(tcp_packet(A, B, 2, 80), now=0.0)[0])
        rec1.vm_id = 7
        rec2.vm_id = 8
        assert table.drop_vm(7) == 1
        assert len(table) == 1
        assert [r.key for r in table.flows_for_vm(8)] == [rec2.key]

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            FlowTable(idle_timeout=0.0)


class TestFlowRows:
    """A flow is a row of the table; a ``FlowRecord`` is a ``(table, row,
    serial)`` view of it that goes dead with the flow."""

    @pytest.mark.parametrize("leave", ["expire", "drop_vm"])
    def test_stale_view_writes_nothing_into_the_row_that_reused_it(self, leave):
        table = FlowTable(idle_timeout=5.0)
        stale = table.record(table.observe(tcp_packet(A, B, 1, 80), now=0.0)[0])
        table.observe(tcp_packet(A, B, 9, 80), now=4.0)  # the table stays non-empty
        stale.vm_id = 7
        if leave == "expire":
            assert len(table.expire_idle(now=6.0)) == 1
        else:
            assert table.drop_vm(7) == 1
        assert not stale.attached
        packet = tcp_packet(B, A, 80, 2)
        row, created = table.observe(packet, now=6.0)
        fresh = table.record(row)
        assert created and fresh.row == stale.row  # the freed row, reused
        stale.vm_id = 9
        stale.packets = 100
        stale.bytes = 1000
        table.discard(stale)
        assert (fresh.packets, fresh.bytes, fresh.vm_id) == (1, packet.size, None)
        assert fresh.key in table and len(table) == 2
        assert table.flows_for_vm(9) == [] and table.flows_for_vm(7) == []
        with pytest.raises(LookupError):
            stale.packets

    def test_an_emptied_table_releases_its_columns(self):
        table = FlowTable(idle_timeout=5.0)
        views = [
            table.record(table.observe(tcp_packet(A, B, port, 80), now=0.0)[0])
            for port in range(1, 200)
        ]
        views[0].vm_id = 3
        assert len(table.expire_idle(now=10.0)) == 199
        assert len(table) == 0 and table.keys == []
        assert all(len(getattr(table, name)) == 0 for name in FlowTable.COLUMNS)
        assert table.flows_for_vm(3) == []
        fresh = table.record(table.observe(tcp_packet(A, B, 1, 80), now=11.0)[0])
        assert fresh.row == views[0].row == 0 and not views[0].attached
        views[0].vm_id = 4
        assert table.flows_for_vm(4) == [] and fresh.vm_id is None


class TestGre:
    def test_encap_decap_roundtrip(self):
        tunnel = GreTunnel(key=7, router_endpoint=A, gateway_endpoint=B)
        p = tcp_packet(A, B, 1, 2, payload="hello")
        gre = encapsulate(tunnel, p)
        assert decapsulate(gre) is p
        assert gre.size == p.size + GRE_OVERHEAD_BYTES
        assert gre.tunnel.key == 7

    def test_tunnel_key_range(self):
        with pytest.raises(ValueError):
            GreTunnel(key=-1, router_endpoint=A, gateway_endpoint=B)
        with pytest.raises(ValueError):
            GreTunnel(key=1 << 32, router_endpoint=A, gateway_endpoint=B)


class TestLink:
    def test_delivery_after_propagation_delay(self, sim):
        received = []
        link = Link(sim, received.append, propagation_delay=0.01, bandwidth=None)
        link.deliver("pkt", size=100)
        sim.run()
        assert received == ["pkt"]
        assert sim.now == pytest.approx(0.01)

    def test_serialization_delay_scales_with_size(self, sim):
        received = []
        link = Link(sim, received.append, propagation_delay=0.0, bandwidth=1000.0)
        link.deliver("pkt", size=500)  # 0.5 s at 1000 B/s
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_fifo_ordering_under_contention(self, sim):
        received = []
        link = Link(sim, received.append, propagation_delay=0.0, bandwidth=1000.0)
        link.deliver("first", size=1000)   # occupies transmitter 1 s
        link.deliver("second", size=10)    # must wait behind first
        sim.run()
        assert received == ["first", "second"]
        assert sim.now == pytest.approx(1.01)

    def test_loss(self, sim):
        received = []
        rng = RandomStream(1)
        link = Link(sim, received.append, loss_rate=0.5, rng=rng)
        sent = 500
        delivered = sum(1 for __ in range(sent) if link.deliver("p", size=40))
        sim.run()
        assert link.lost == sent - delivered
        assert len(received) == delivered
        assert 150 < delivered < 350  # ~50%

    def test_lossy_link_requires_rng(self, sim):
        with pytest.raises(ValueError):
            Link(sim, lambda p: None, loss_rate=0.1)

    def test_byte_accounting(self, sim):
        link = Link(sim, lambda p: None)
        link.deliver("a", size=100)
        link.deliver("b", size=50)
        sim.run()
        assert link.delivered == 2
        assert link.bytes_delivered == 150

    def test_parameter_validation(self, sim):
        with pytest.raises(ValueError):
            Link(sim, lambda p: None, propagation_delay=-1.0)
        with pytest.raises(ValueError):
            Link(sim, lambda p: None, bandwidth=0.0)
        with pytest.raises(ValueError):
            Link(sim, lambda p: None, loss_rate=1.0, rng=RandomStream(1))
