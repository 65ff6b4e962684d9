"""Unit tests for the baseline systems."""

import pytest

from repro.baselines import dedicated_farm, dedicated_vms_per_host, full_copy_farm
from repro.baselines.responder import StatelessResponder
from repro.core.config import HoneyfarmConfig
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.packet import TcpFlags, icmp_packet, tcp_packet, udp_packet
from repro.services.personality import default_registry
from repro.vmm.vm import VMState

ATTACKER = IPAddress.parse("203.0.113.9")
TARGET = IPAddress.parse("10.16.0.25")

CONFIG = HoneyfarmConfig(
    prefixes=("10.16.0.0/24",), num_hosts=1, clone_jitter=0.0,
    host_memory_bytes=1 << 30,
)


class TestDedicatedBaseline:
    def test_vm_not_ready_for_tens_of_seconds(self):
        farm = dedicated_farm(CONFIG)
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        farm.run(until=10.0)
        vm = farm.gateway.vm_at(TARGET)
        assert vm.state is VMState.CLONING  # still booting: scanner lost
        farm.run(until=60.0)
        assert vm.state is VMState.RUNNING

    def test_vm_charges_full_image(self):
        farm = dedicated_farm(CONFIG)
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        farm.run(until=60.0)
        vm = farm.gateway.vm_at(TARGET)
        assert vm.private_pages == vm.address_space.page_count

    def test_memory_caps_coverage(self):
        # 1 GiB host, 128 MiB images: the image plus ~7 VMs exhaust it.
        farm = dedicated_farm(CONFIG)
        for i in range(30):
            farm.inject(tcp_packet(ATTACKER, IPAddress(TARGET - 20 + i), 1, 445))
        farm.run(until=60.0)
        counters = farm.metrics.counters()
        assert counters["gateway.no_capacity_drop"] > 0
        assert farm.live_vms <= 8

    def test_capacity_math(self):
        assert dedicated_vms_per_host(2 << 30, 128 << 20) == 15
        assert dedicated_vms_per_host(2 << 30, 128 << 20, reserved_fraction=0.0) == 16
        with pytest.raises(ValueError):
            dedicated_vms_per_host(1 << 30, 0)


class TestFullCopyBaseline:
    def test_latency_above_flash_but_below_boot(self):
        farm = full_copy_farm(CONFIG)
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        farm.run(until=5.0)
        vm = farm.gateway.vm_at(TARGET)
        assert vm.state is VMState.RUNNING
        latency = farm.clone_engine.mean_latency_seconds()  # of the one clone
        assert 0.521 < latency < 2.0

    def test_memory_charged_eagerly(self):
        farm = full_copy_farm(CONFIG)
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        farm.run(until=5.0)
        breakdown = farm.memory_breakdown()
        assert breakdown.private_resident == 128 << 20
        assert breakdown.consolidation_factor == pytest.approx(1.0)


class TestStatelessResponder:
    @pytest.fixture
    def responder(self, registry):
        inventory = AddressSpaceInventory([Prefix.parse("10.16.0.0/24")])
        return StatelessResponder(inventory, registry)

    def test_answers_probes_like_a_guest(self, responder):
        syn = tcp_packet(ATTACKER, TARGET, 1, 445)
        replies = responder.handle_packet(syn)
        assert len(replies) == 1 and replies[0].flags.is_synack

    def test_closed_port_rst(self, responder):
        replies = responder.handle_packet(tcp_packet(ATTACKER, TARGET, 1, 8080))
        assert replies[0].flags & TcpFlags.RST

    def test_icmp_echo(self, responder):
        assert len(responder.handle_packet(icmp_packet(ATTACKER, TARGET))) == 1

    def test_udp_banner_and_unreachable(self, responder):
        banner = responder.handle_packet(udp_packet(ATTACKER, TARGET, 1, 1434,
                                                    payload="probe"))
        assert banner[0].payload == "banner:MSSQL"
        unreachable = responder.handle_packet(udp_packet(ATTACKER, TARGET, 1, 9999))
        assert unreachable[0].is_icmp

    def test_exploits_bounce_but_are_counted(self, responder):
        exploit = udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer")
        responder.handle_packet(exploit)
        responder.handle_packet(exploit)
        assert responder.would_have_infected == 2
        assert responder.exploit_attempts_by_tag == {"exploit:slammer": 2}
        assert responder.capture_count == 0  # the fidelity gap, quantified

    def test_ignores_traffic_outside_inventory(self, responder):
        outside = tcp_packet(ATTACKER, IPAddress.parse("10.99.0.1"), 1, 445)
        assert responder.handle_packet(outside) == []
        assert responder.packets_seen == 0

    def test_covers_whole_space_with_no_state(self, responder):
        # 256 addresses answered without any per-address allocation.
        for i in range(256):
            responder.handle_packet(
                tcp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i}"), 1, 80)
            )
        assert responder.packets_seen == 256
        assert responder.replies_sent == 256

    def test_per_address_personalities(self, registry):
        # With a personality_for lookup, each dark address answers with
        # its own personality's surface — port 22 is open on the Linux
        # half of the space and closed (RST) on the Windows half.
        inventory = AddressSpaceInventory([Prefix.parse("10.16.0.0/24")])
        responder = StatelessResponder(
            inventory, registry,
            personality_for=lambda addr: (
                "linux-server" if addr % 2 else "windows-default"
            ),
        )
        windows = responder.handle_packet(
            tcp_packet(ATTACKER, IPAddress.parse("10.16.0.2"), 1, 22)
        )
        linux = responder.handle_packet(
            tcp_packet(ATTACKER, IPAddress.parse("10.16.0.3"), 1, 22)
        )
        assert windows[0].flags & TcpFlags.RST
        assert linux[0].flags.is_synack

    def test_matches_farm_personality_assignment(self, registry):
        # The mixed-population config hash drives the responder exactly
        # as it drives the farm's spawn path.
        config = CONFIG.with_overrides(
            personality_mix={"windows-default": 0.5, "linux-server": 0.5}
        )
        prefix = Prefix.parse("10.16.0.0/24")
        inventory = AddressSpaceInventory([prefix])
        responder = StatelessResponder(
            inventory, registry,
            personality_for=lambda a: config.personality_for_address(prefix, a),
        )
        names = {
            responder.personality_at(IPAddress.parse(f"10.16.0.{i}")).name
            for i in range(64)
        }
        assert names == {"windows-default", "linux-server"}
