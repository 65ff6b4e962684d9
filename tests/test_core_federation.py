"""Tests for federated (multi-gateway) honeyfarms."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.federation import FederatedHoneyfarm
from repro.core.honeyfarm import Honeyfarm
from repro.core.intershard import InterShardConfig
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_UDP, tcp_packet, udp_packet
from repro.services.guest import ScanBehavior
from repro.sim.engine import Simulator
from repro.workloads.trace import TraceRecord

ATTACKER = IPAddress.parse("203.0.113.1")


def shard_config(prefix, **overrides):
    return HoneyfarmConfig(
        prefixes=(prefix,), num_hosts=1, clone_jitter=0.0,
        idle_timeout_seconds=60.0, seed=5,
    ).with_overrides(**overrides)


@pytest.fixture
def federation():
    return FederatedHoneyfarm(
        [shard_config("10.16.0.0/24"), shard_config("10.17.0.0/24")],
        interlink=InterShardConfig(),
    )


class TestConstruction:
    def test_overlapping_shards_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            FederatedHoneyfarm(
                [shard_config("10.16.0.0/16"), shard_config("10.16.4.0/24")],
                interlink=InterShardConfig(),
            )

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            FederatedHoneyfarm([], interlink=InterShardConfig())

    def test_total_addresses(self, federation):
        assert federation.total_addresses == 512


class TestRouting:
    def test_packets_route_to_owning_member(self, federation):
        federation.inject(tcp_packet(ATTACKER, IPAddress.parse("10.16.0.5"), 1, 445))
        federation.inject(tcp_packet(ATTACKER, IPAddress.parse("10.17.0.5"), 2, 445))
        federation.run(until=2.0)
        assert federation.members[0].live_vms == 1
        assert federation.members[1].live_vms == 1
        assert federation.live_vms == 2

    def test_unrouteable_counted(self, federation):
        federation.inject(tcp_packet(ATTACKER, IPAddress.parse("10.99.0.5"), 1, 445))
        assert federation.unrouteable_packets == 1
        assert federation.live_vms == 0


class TestIsolationAndAggregation:
    def test_epidemic_in_one_shard_stays_there(self):
        """Two plain farms on one shared clock (no federation): reflection
        operates within each farm's own address space, so the other
        farm's gateway never sees the outbreak."""
        sim = Simulator()
        farms = [
            Honeyfarm(shard_config("10.16.0.0/24"), sim=sim),
            Honeyfarm(shard_config("10.17.0.0/24"), sim=sim),
        ]
        worm = ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer",
                            scan_rate=30.0)
        for farm in farms:
            farm.register_worm(worm)
            farm._ensure_sweeper()
        farms[0].inject(udp_packet(ATTACKER, IPAddress.parse("10.16.0.5"),
                                   1, 1434, payload="exploit:slammer"))
        sim.run(until=6.0)
        assert farms[0].infection_count() > 1
        assert farms[1].infection_count() == 0
        assert farms[1].metrics.counters().get("gateway.packets_in", 0) == 0

    def test_aggregate_counters_sum_members(self, federation):
        for i in range(3):
            federation.inject(tcp_packet(ATTACKER,
                                         IPAddress.parse(f"10.16.0.{i + 1}"),
                                         100 + i, 445))
        federation.inject(tcp_packet(ATTACKER, IPAddress.parse("10.17.0.1"),
                                     200, 445))
        federation.run(until=2.0)
        totals = federation.aggregate_counters()
        assert totals["farm.vms_spawned"] == 4
        assert totals["gateway.packets_in"] >= 4

    def test_memory_breakdown_aggregates(self, federation):
        federation.inject(tcp_packet(ATTACKER, IPAddress.parse("10.16.0.5"), 1, 445))
        federation.run(until=2.0)
        breakdown = federation.memory_breakdown()
        assert breakdown.live_vms == 1
        assert breakdown.image_resident == 2 * (128 << 20)  # one image per member

    def test_infections_merged_in_time_order(self, federation):
        worm = ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer",
                            scan_rate=20.0)
        federation.register_worm(worm)
        federation.inject(udp_packet(ATTACKER, IPAddress.parse("10.16.0.5"),
                                     1, 1434, payload="exploit:slammer"))
        federation.attach_shard_records(1, [TraceRecord(
            1.0, "203.0.113.1", "10.17.0.5", PROTO_UDP, 1, 1434,
            payload="exploit:slammer", size=28 + len("exploit:slammer"),
        )])
        federation.run(until=5.0)
        merged = federation.infections()
        times = [r.time for r in merged]
        assert times == sorted(times)
        assert len(merged) == federation.infection_count()

    def test_per_member_rows(self, federation):
        federation.inject(tcp_packet(ATTACKER, IPAddress.parse("10.16.0.5"), 1, 445))
        federation.run(until=2.0)
        rows = federation.per_member_rows()
        assert len(rows) == 2
        assert rows[0][0] == "10.16.0.0/24"
        assert rows[0][1] == 1 and rows[1][1] == 0
