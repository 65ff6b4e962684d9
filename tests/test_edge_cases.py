"""Edge-case tests across modules: paths the main suites don't reach."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    TcpFlags,
    icmp_packet,
    tcp_packet,
    udp_packet,
)
from repro.services.guest import GuestHost, ScanBehavior
from repro.sim.rand import RandomStream
from repro.vmm.host import PhysicalHost
from repro.vmm.memory import GuestAddressSpace, PAGE_SIZE
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine, VMState
from repro.workloads.scenarios import (
    outbreak_scenario,
    slash16_farm,
    small_farm,
    telescope_scenario,
)

ATTACKER = IPAddress.parse("203.0.113.1")
TARGET = IPAddress.parse("10.16.0.9")


class TestGatewayEdges:
    def test_packet_tap_sees_every_inbound_packet(self, small_farm):
        tapped = []
        small_farm.attach_packet_tap(tapped.append)
        small_farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        small_farm.inject(tcp_packet(ATTACKER, IPAddress.parse("10.99.0.1"), 1, 445))
        assert len(tapped) == 2  # strays are tapped too (pre-filter)

    def test_sweep_flows_expires_idle_entries(self, small_farm):
        small_farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        assert len(small_farm.gateway.flows) == 1
        small_farm.run(until=200.0)  # flow idle timeout is 60s
        assert len(small_farm.gateway.flows) == 0

    def test_emit_from_unknown_flow_is_policy_checked(self, small_farm):
        """A packet a VM emits without any prior flow (spontaneous) is
        honeypot-initiated by definition."""
        small_farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        small_farm.run(until=1.0)
        vm = small_farm.gateway.vm_at(TARGET)
        spontaneous = tcp_packet(TARGET, IPAddress.parse("8.8.4.4"), 1234, 80)
        small_farm.gateway.emit_from_vm(vm, spontaneous)
        counters = small_farm.metrics.counters()
        assert counters["gateway.outbound.reflected"] == 1  # reflect policy


class TestGuestEdges:
    @pytest.fixture
    def guest(self, snapshot, sim, registry):
        vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), TARGET, 0.0, vm_id=1)
        vm.start(now=0.0)
        return GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(7),
        )

    def test_icmp_echo_reply_not_answered(self, guest, sim):
        unsolicited = icmp_packet(ATTACKER, TARGET, icmp_type=ICMP_ECHO_REPLY)
        assert guest.handle_packet(unsolicited, sim.now) == []

    def test_rst_to_pending_connection_cancels_followup(self, snapshot, sim, registry):
        emitted = []
        vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), TARGET, 0.0, vm_id=1)
        vm.start(now=0.0)
        behavior = ScanBehavior("blaster", PROTO_TCP, 135, "exploit:blaster",
                                scan_rate=100.0)
        guest = GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(9),
            transmit=lambda v, p: emitted.append(p),
            worm_behaviors={behavior.exploit_tag: behavior},
        )
        guest.handle_packet(
            tcp_packet(ATTACKER, TARGET, 1, 135,
                       flags=TcpFlags.PSH | TcpFlags.ACK,
                       payload="exploit:blaster"),
            sim.now,
        )
        sim.run(until=0.2)
        syns = [p for p in emitted if p.flags.is_syn]
        assert syns
        scan = syns[0]
        # The target refuses: RST back to the scanning port.
        rst = Packet(src=scan.dst, dst=TARGET, protocol=PROTO_TCP,
                     src_port=scan.dst_port, dst_port=scan.src_port,
                     flags=TcpFlags.RST | TcpFlags.ACK)
        before = len(emitted)
        guest.handle_packet(rst, sim.now)
        assert len(emitted) == before  # no exploit payload followed
        assert scan.src_port not in guest._pending_followups

    def test_dropped_page_writes_counted_without_handler(self):
        from repro.services.personality import default_registry
        from repro.sim.engine import Simulator

        registry = default_registry()
        host = PhysicalHost(0, memory_bytes=(40 + 8 + 32768) * PAGE_SIZE)
        snapshot = ReferenceSnapshot(host.memory, image_bytes=40 * PAGE_SIZE)
        # Exhaust the pool down to 8 free frames: the guest's working set
        # cannot fit and, with no OOM handler, writes must drop.
        host.memory.allocate(host.memory.free_frames - 8)
        vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), TARGET, 0.0, vm_id=1)
        vm.start(now=0.0)
        guest = GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=Simulator(), rng=RandomStream(3),
        )
        guest.handle_packet(icmp_packet(ATTACKER, TARGET), 0.0)
        assert guest.dropped_page_writes > 0
        assert vm.private_pages == 8  # what fit


class TestVmEdges:
    def test_reassignment_requires_running(self, snapshot):
        vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), TARGET, 0.0, vm_id=1)
        with pytest.raises(ValueError):
            vm.begin_reassignment(IPAddress.parse("10.16.0.10"), 0.0)

    def test_reassignment_changes_identity(self, snapshot):
        vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), TARGET, 0.0, vm_id=1)
        vm.start(now=0.0)
        new_ip = IPAddress.parse("10.16.0.10")
        vm.begin_reassignment(new_ip, 1.0)
        assert vm.state is VMState.CLONING
        assert vm.ip == new_ip
        vm.start(now=1.1)
        assert vm.state is VMState.RUNNING


class TestScenarios:
    def test_slash16_farm_shape(self):
        farm = slash16_farm(num_hosts=2)
        assert farm.inventory.total_addresses == 65536
        assert len(farm.hosts) == 2

    def test_small_farm_shape(self):
        farm = small_farm()
        assert farm.inventory.total_addresses == 256
        assert len(farm.hosts) == 1

    def test_telescope_scenario_aims_at_farm(self):
        farm, workload = telescope_scenario(num_hosts=1)
        assert workload.inventory.total_addresses == farm.inventory.total_addresses

    def test_outbreak_scenario_unknown_worm(self):
        with pytest.raises(ValueError, match="unknown worm"):
            outbreak_scenario(worm_name="stuxnet")

    def test_outbreak_scenario_throttles_in_farm_rate(self):
        farm, outbreak = outbreak_scenario(worm_name="slammer")
        assert outbreak.worm.scan_rate == 4000.0  # external dynamics intact
        assert outbreak.config.in_farm_scan_rate == 10.0


class TestCliForensics:
    def test_forensics_subcommand(self, capsys):
        from repro.cli import main

        assert main(["forensics", "--victims", "4"]) == 0
        out = capsys.readouterr().out
        assert "Forensic triage" in out
        assert "Content-based sharing" in out
