"""End-to-end integration tests: border router → gateway → VM → reply.

These exercise the full packet path including GRE tunnelling — the
configuration a real deployment runs — and the cross-policy containment
comparison that is the paper's central qualitative claim.
"""

import pytest

from repro.analysis.epidemics import summarize_containment
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress, Prefix
from repro.net.gre import GreTunnel
from repro.net.link import Link
from repro.net.packet import PROTO_UDP, TcpFlags, tcp_packet, udp_packet
from repro.net.router import BorderRouter
from repro.services.guest import ScanBehavior
from repro.workloads.scenarios import outbreak_scenario
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm

ATTACKER = IPAddress.parse("203.0.113.7")
TARGET = IPAddress.parse("10.16.0.25")


def build_tunnelled_farm():
    """A farm fronted by a real border router over GRE links."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), num_hosts=1,
        containment="reflect", clone_jitter=0.0, seed=11,
    ))
    tunnel = GreTunnel(
        key=1,
        router_endpoint=IPAddress.parse("198.51.100.1"),
        gateway_endpoint=IPAddress.parse("198.51.100.254"),
    )
    replies_to_internet = []
    uplink = Link(farm.sim, farm.gateway.receive_tunnel, propagation_delay=0.002)
    downlink_sink = {}
    router = BorderRouter(
        tunnel, [Prefix.parse("10.16.0.0/24")], uplink,
        external_sink=replies_to_internet.append,
    )
    downlink = Link(farm.sim, router.receive_from_gateway, propagation_delay=0.002)
    farm.gateway.register_tunnel(tunnel, [Prefix.parse("10.16.0.0/24")],
                                 return_link=downlink)
    return farm, router, replies_to_internet


class TestTunnelledPath:
    def test_probe_travels_tunnel_and_reply_returns(self):
        farm, router, replies = build_tunnelled_farm()
        router.receive_from_internet(tcp_packet(ATTACKER, TARGET, 1234, 445))
        farm.run(until=2.0)
        assert len(replies) == 1
        reply = replies[0]
        assert reply.src == TARGET and reply.dst == ATTACKER
        assert reply.flags.is_synack  # the dark address answered like a host

    def test_multiple_probes_multiple_vms_one_tunnel(self):
        farm, router, replies = build_tunnelled_farm()
        for i in range(10):
            router.receive_from_internet(
                tcp_packet(ATTACKER, IPAddress(TARGET.value + i), 1000 + i, 445)
            )
        farm.run(until=3.0)
        assert farm.live_vms == 10
        assert len(replies) == 10

    def test_worm_contained_even_with_real_tunnels(self):
        farm, router, replies = build_tunnelled_farm()
        farm.register_worm(
            ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=30.0)
        )
        router.receive_from_internet(
            udp_packet(ATTACKER, TARGET, 4000, 1434, payload="exploit:slammer")
        )
        farm.run(until=10.0)
        assert farm.infection_count() > 1  # epidemic inside
        # Everything that left the farm was addressed to the attacker —
        # replies on their flow — never worm scans to third parties.
        assert all(p.dst == ATTACKER for p in replies)


class TestContainmentComparison:
    """The paper's qualitative table: safety and fidelity per policy."""

    def run_policy(self, policy):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/25",), num_hosts=1,
            containment=policy, clone_jitter=0.0, seed=4,
        ))
        farm.register_worm(
            ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=40.0)
        )
        farm.inject(udp_packet(ATTACKER, IPAddress.parse("10.16.0.9"), 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=8.0)
        return summarize_containment(farm)

    def test_open_is_unsafe(self):
        summary = self.run_policy("open")
        assert not summary.contained

    def test_drop_all_is_safe_but_blind(self):
        summary = self.run_policy("drop-all")
        assert summary.contained
        assert not summary.fidelity_preserved  # no onward infections visible

    def test_allow_dns_is_safe_but_blind_to_propagation(self):
        summary = self.run_policy("allow-dns")
        assert summary.contained
        assert not summary.fidelity_preserved

    def test_reflect_is_safe_and_faithful(self):
        summary = self.run_policy("reflect")
        assert summary.contained
        assert summary.fidelity_preserved
        assert summary.max_generation >= 1

    def test_reflect_catches_most_infections(self):
        by_policy = {p: self.run_policy(p) for p in
                     ("open", "drop-all", "reflect")}
        assert by_policy["reflect"].infections_total > (
            by_policy["drop-all"].infections_total
        )


class TestScenarioSmoke:
    def test_outbreak_scenario_end_to_end(self):
        farm, outbreak = outbreak_scenario(
            worm_name="codered", scan_rate=30.0, seed=13, clone_jitter=0.0,
            prefixes=("10.16.0.0/25",),
        )
        outbreak.start()
        farm.run(until=60.0)
        assert farm.infection_count() > 0
        assert summarize_containment(farm).contained

    def test_telescope_driven_farm_reaches_steady_state(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=20.0, clone_jitter=0.0, seed=21,
        ))
        workload = TelescopeWorkload(
            farm.config.parsed_prefixes(),
            TelescopeConfig(seed=5, sources_per_second_per_slash16=1024.0),
        )
        replay_into_farm(farm, workload.generate(60.0))
        farm.run(until=90.0)
        counters = farm.metrics.counters()
        assert counters["farm.vms_spawned"] > 10
        assert counters["farm.vms_reclaimed"] > 0
        # Steady state: far fewer live VMs than addresses probed.
        assert farm.live_vms < counters["farm.vms_spawned"]
