"""Unit tests for the guest behavioural model."""

import pytest

from repro.net.addr import IPAddress
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    PROTO_TCP,
    PROTO_UDP,
    TcpFlags,
    icmp_packet,
    tcp_packet,
    udp_packet,
)
from repro.services.guest import GuestHost, ScanBehavior
from repro.services.personality import default_registry
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStream
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

ATTACKER = IPAddress.parse("203.0.113.1")
VICTIM = IPAddress.parse("10.16.0.5")


@pytest.fixture
def vm(snapshot):
    vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), VICTIM, 0.0, vm_id=1)
    vm.start(now=0.0)
    return vm


@pytest.fixture
def guest(vm, sim, registry):
    return GuestHost(
        vm=vm,
        personality=registry.get("windows-default"),
        catalog=registry.catalog,
        sim=sim,
        rng=RandomStream(1),
    )


SLAMMER = ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=100.0)


class TestFidelity:
    def test_icmp_echo_answered(self, guest, sim):
        replies = guest.handle_packet(icmp_packet(ATTACKER, VICTIM), sim.now)
        assert len(replies) == 1
        assert replies[0].icmp_type == ICMP_ECHO_REPLY
        assert replies[0].dst == ATTACKER

    def test_syn_to_open_port_gets_synack(self, guest, sim):
        replies = guest.handle_packet(tcp_packet(ATTACKER, VICTIM, 1234, 445), sim.now)
        assert len(replies) == 1
        assert replies[0].flags.is_synack

    def test_syn_to_closed_port_gets_rst(self, guest, sim):
        replies = guest.handle_packet(tcp_packet(ATTACKER, VICTIM, 1234, 8080), sim.now)
        assert len(replies) == 1
        assert replies[0].flags & TcpFlags.RST

    def test_data_to_open_port_gets_banner(self, guest, sim):
        probe = tcp_packet(ATTACKER, VICTIM, 1234, 80,
                           flags=TcpFlags.PSH | TcpFlags.ACK, payload="GET /")
        replies = guest.handle_packet(probe, sim.now)
        assert len(replies) == 1
        assert "IIS" in replies[0].payload

    def test_udp_to_closed_port_gets_unreachable(self, guest, sim):
        replies = guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 9999), sim.now)
        assert len(replies) == 1
        assert replies[0].is_icmp and replies[0].icmp_type == 3

    def test_mid_stream_segment_to_closed_port_silently_dropped(self, guest, sim):
        segment = tcp_packet(ATTACKER, VICTIM, 1, 8080, flags=TcpFlags.ACK)
        assert guest.handle_packet(segment, sim.now) == []

    def test_personalities_answer_differently(self, vm, sim, registry):
        linux = GuestHost(
            vm=vm, personality=registry.get("linux-server"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(2),
        )
        replies = linux.handle_packet(tcp_packet(ATTACKER, VICTIM, 1, 445), sim.now)
        assert replies[0].flags & TcpFlags.RST  # no SMB on the Linux image

    def test_paused_vm_does_not_answer(self, guest, vm, sim):
        vm.pause(now=0.0)
        assert guest.handle_packet(icmp_packet(ATTACKER, VICTIM), sim.now) == []


class TestMemoryEffects:
    def test_first_packet_dirties_base_working_set(self, guest, vm, sim):
        assert vm.private_pages == 0
        guest.handle_packet(icmp_packet(ATTACKER, VICTIM), sim.now)
        assert vm.private_pages == guest.personality.base_working_set_pages

    def test_connections_dirty_additional_pages(self, guest, vm, sim):
        guest.handle_packet(icmp_packet(ATTACKER, VICTIM), sim.now)
        base = vm.private_pages
        probe = tcp_packet(ATTACKER, VICTIM, 1, 80,
                           flags=TcpFlags.PSH | TcpFlags.ACK, payload="GET /")
        guest.handle_packet(probe, sim.now)
        assert vm.private_pages == base + guest.personality.pages_per_connection

    def test_infection_dirties_worm_body(self, guest, vm, sim, registry):
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        expected = (
            guest.personality.base_working_set_pages
            + guest.personality.pages_per_connection
            + registry.catalog.get("slammer").infection_pages
        )
        assert vm.private_pages == expected

    def test_connection_footprint_plateaus(self, guest, vm, sim):
        """Thousands of connections must not grow memory without bound:
        the connection region cycles (buffer/heap reuse)."""
        probe = tcp_packet(ATTACKER, VICTIM, 1, 80,
                           flags=TcpFlags.PSH | TcpFlags.ACK, payload="GET /")
        for __ in range(500):
            guest.handle_packet(probe, sim.now)
        cap = guest.personality.connection_working_set_cap_pages
        base = guest.personality.base_working_set_pages
        assert vm.private_pages <= base + cap
        assert guest.connections_handled == 500

    def test_repeated_activity_does_not_regrow_working_set(self, guest, vm, sim):
        for __ in range(3):
            guest.handle_packet(icmp_packet(ATTACKER, VICTIM), sim.now)
        assert vm.private_pages == guest.personality.base_working_set_pages

    def test_activity_touches_vm_timestamp(self, guest, vm, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        guest.handle_packet(icmp_packet(ATTACKER, VICTIM), sim.now)
        assert vm.last_activity == 5.0


class TestInfection:
    def test_exploit_infects_vulnerable_guest(self, guest, sim):
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        assert guest.infected
        record = guest.infection
        assert record.worm_name == "slammer"
        assert record.source == ATTACKER
        assert record.victim == VICTIM

    def test_exploit_for_absent_vulnerability_bounces(self, vm, sim, registry):
        linux = GuestHost(
            vm=vm, personality=registry.get("linux-server"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(2),
        )
        linux.handle_packet(tcp_packet(ATTACKER, VICTIM, 1, 80,
                                       flags=TcpFlags.PSH | TcpFlags.ACK,
                                       payload="exploit:codered"), sim.now)
        assert not linux.infected

    def test_double_infection_is_noop(self, guest, sim):
        exploit = udp_packet(ATTACKER, VICTIM, 1, 1434, payload="exploit:slammer")
        guest.handle_packet(exploit, sim.now)
        first = guest.infection
        guest.handle_packet(exploit, sim.now)
        assert guest.infection is first

    def test_infected_guest_suppresses_banner_reply(self, guest, sim):
        exploit = tcp_packet(ATTACKER, VICTIM, 1, 80,
                             flags=TcpFlags.PSH | TcpFlags.ACK,
                             payload="exploit:codered")
        replies = guest.handle_packet(exploit, sim.now)
        assert replies == []  # the exploit took the service over

    def test_on_infection_callback_fires(self, vm, sim, registry):
        records = []
        guest = GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(3),
            on_infection=records.append,
        )
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        assert len(records) == 1 and records[0].worm_name == "slammer"


class TestPropagation:
    def make_guest(self, vm, sim, registry, transmit):
        return GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(4),
            transmit=transmit,
            worm_behaviors={SLAMMER.exploit_tag: SLAMMER},
        )

    def test_infected_guest_emits_scans(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, lambda v, p: emitted.append(p))
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        sim.run(until=1.0)
        assert len(emitted) > 10  # ~100 scans/s expected
        scan = emitted[0]
        assert scan.payload == "exploit:slammer"
        assert scan.dst_port == 1434
        assert scan.src == VICTIM

    def test_scan_rate_matches_behavior(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, lambda v, p: emitted.append(p))
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        sim.run(until=10.0)
        rate = len(emitted) / 10.0
        assert rate == pytest.approx(SLAMMER.scan_rate, rel=0.2)

    def test_stop_halts_scanning(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, lambda v, p: emitted.append(p))
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        sim.run(until=0.5)
        count = len(emitted)
        guest.stop()
        sim.run(until=5.0)
        assert len(emitted) == count

    def test_destroyed_vm_stops_scanning(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, lambda v, p: emitted.append(p))
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        sim.run(until=0.5)
        vm.destroy(now=sim.now)
        count = len(emitted)
        sim.run(until=5.0)
        assert len(emitted) == count

    def test_unknown_worm_behavior_means_no_scanning(self, vm, sim, registry):
        emitted = []
        guest = GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(5),
            transmit=lambda v, p: emitted.append(p),
            worm_behaviors={},  # infection known, behaviour not registered
        )
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)
        sim.run(until=2.0)
        assert guest.infected
        assert emitted == []

    def test_dns_lookup_first(self, vm, sim, registry):
        dns_ip = IPAddress.parse("198.18.53.53")
        behavior = ScanBehavior(
            "blaster", PROTO_TCP, 135, "exploit:blaster", scan_rate=50.0,
            dns_lookup_first=True, dns_server=dns_ip,
        )
        emitted = []
        guest = GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(6),
            transmit=lambda v, p: emitted.append(p),
            worm_behaviors={behavior.exploit_tag: behavior},
        )
        guest.handle_packet(tcp_packet(ATTACKER, VICTIM, 1, 135,
                                       flags=TcpFlags.PSH | TcpFlags.ACK,
                                       payload="exploit:blaster"), sim.now)
        sim.run(until=1.0)
        assert emitted[0].dst == dns_ip and emitted[0].dst_port == 53
        assert all(p.dst_port == 135 for p in emitted[1:])


class TestScanBehaviorValidation:
    def test_rejects_nonpositive_scan_rate(self):
        with pytest.raises(ValueError):
            ScanBehavior("w", PROTO_UDP, 1, "exploit:w", scan_rate=0.0)

    def test_dns_first_requires_server(self):
        with pytest.raises(ValueError):
            ScanBehavior("w", PROTO_UDP, 1, "exploit:w", scan_rate=1.0,
                         dns_lookup_first=True)


class TestLoopEvents:
    """The scan and beacon loops are chains of heap events, one step
    each. A stopped guest must schedule, fire and cancel exactly the
    events (and draw exactly the random stream) that the farm's digests
    were recorded with."""

    DNS = IPAddress.parse("198.18.53.53")
    CNC = IPAddress.parse("198.51.100.66")

    def make_guest(self, vm, sim, registry, behavior, transmit, seed=4):
        return GuestHost(
            vm=vm, personality=registry.get("windows-default"),
            catalog=registry.catalog, sim=sim, rng=RandomStream(seed),
            transmit=transmit, worm_behaviors={behavior.exploit_tag: behavior},
        )

    @staticmethod
    def infect(guest, sim):
        guest.handle_packet(udp_packet(ATTACKER, VICTIM, 1, 1434,
                                       payload="exploit:slammer"), sim.now)

    def test_a_stop_before_the_start_leaves_the_start_to_fire(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, SLAMMER, lambda v, p: emitted.append(p))
        self.infect(guest, sim)
        assert sim.pending == 1  # the loop's start, at the current time
        guest.stop()
        assert sim.cancelled_pending == 0  # the start is not cancelled...
        sim.run(until=5.0)
        assert sim.events_processed == 1  # ...it fires, as a no-op
        assert sim.pending == 0 and emitted == []

    def test_a_stop_while_sleeping_cancels_the_wakeup(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, SLAMMER, lambda v, p: emitted.append(p))
        self.infect(guest, sim)
        sim.run(until=0.5)
        processed, count = sim.events_processed, len(emitted)
        assert sim.pending == 1  # asleep until its next scan
        guest.stop()
        assert sim.cancelled_pending == 1  # cancelled in the heap...
        sim.run(until=5.0)
        assert sim.events_processed == processed  # ...never fired
        assert len(emitted) == count and sim.pending == 0

    @pytest.mark.parametrize("dns_first", [False, True], ids=["scan", "dns-query"])
    def test_a_stop_inside_its_own_transmit_draws_the_delay_and_schedules_nothing(
        self, vm, sim, registry, snapshot, dns_first
    ):
        # The farm can stop a guest from inside the guest's own transmit
        # (a pressure eviction of the scanner). The step still tests its
        # loop condition and draws its next delay, as an unstopped step
        # does, and then schedules nothing.
        behavior = ScanBehavior(
            "slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=100.0,
            dns_lookup_first=dns_first, dns_server=self.DNS if dns_first else None,
        )
        emitted = []

        def transmit_and_stop(vm, packet):
            emitted.append(packet)
            guest.stop()

        guest = self.make_guest(vm, sim, registry, behavior, transmit_and_stop)
        twin_sim = Simulator()
        twin_vm = VirtualMachine(
            snapshot, GuestAddressSpace(snapshot.image), VICTIM, 0.0, vm_id=1
        )
        twin_vm.start(now=0.0)
        twin = self.make_guest(twin_vm, twin_sim, registry, behavior, lambda v, p: None)
        for each, clock in ((guest, sim), (twin, twin_sim)):
            self.infect(each, clock)
            while each.scans_emitted == 0:
                assert clock.step()
        assert len(emitted) == 1
        assert sim.pending == 0 and sim.cancelled_pending == 0
        assert twin_sim.pending == 1  # the unstopped twin sleeps
        assert guest.rng.random() == twin.rng.random()  # same draws so far
        sim.run(until=5.0)
        assert len(emitted) == 1

    def test_a_second_stop_changes_nothing(self, vm, sim, registry):
        emitted = []
        guest = self.make_guest(vm, sim, registry, SLAMMER, lambda v, p: emitted.append(p))
        self.infect(guest, sim)
        sim.run(until=0.5)
        guest.stop()
        guest.stop()
        assert sim.cancelled_pending == 1
        processed, count = sim.events_processed, len(emitted)
        sim.run(until=5.0)
        guest.stop()
        assert sim.cancelled_pending == 0
        assert sim.events_processed == processed and len(emitted) == count

    def test_one_beacon_loop_per_guest_after_the_dns_pause(self, vm, sim, registry):
        bot = ScanBehavior(
            "slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=20.0,
            dns_lookup_first=True, dns_server=self.DNS,
            cnc_server=self.CNC, beacon_interval=5.0,
        )
        sent = []
        guest = self.make_guest(
            vm, sim, registry, bot, lambda v, p: sent.append((sim.now, p))
        )
        self.infect(guest, sim)
        sim.run(until=23.0)
        query_time, query = sent[0]
        assert query.dst == self.DNS and query_time == 0.0
        beacons = [t for t, p in sent if p.dst == self.CNC]
        scans = [t for t, p in sent[1:] if p.dst != self.CNC]
        # The beacon loop starts once, after the DNS pause, and checks in
        # every interval: t0, t0 + 5, ..., t0 + 20.
        assert 0.01 <= beacons[0] <= 0.05 and beacons[0] < scans[0]
        assert beacons == pytest.approx([beacons[0] + 5.0 * k for k in range(5)])
        assert guest.beacons_sent == 5
        assert len(scans) > 100  # the scan loop runs beside it
        guest.stop()
        sim.run(until=60.0)
        assert guest.beacons_sent == 5
