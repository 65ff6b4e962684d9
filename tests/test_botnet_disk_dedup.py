"""Tests for bot C&C behaviour, guest disk activity, and dedup analysis."""

import pytest

from repro.analysis.dedup import dedup_opportunity
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_TCP, PROTO_UDP, TcpFlags, tcp_packet, udp_packet
from repro.services.guest import ScanBehavior

ATTACKER = IPAddress.parse("203.0.113.1")
TARGET = IPAddress.parse("10.16.0.9")
CNC = IPAddress.parse("198.51.100.99")


def bot_behavior(farm, **overrides):
    defaults = dict(
        worm_name="blaster",
        protocol=PROTO_TCP,
        dst_port=135,
        exploit_tag="exploit:blaster",
        scan_rate=10.0,
        dns_lookup_first=True,
        dns_server=farm.dns_server.address,
        rendezvous_domain="cnc.badguys.example",
        cnc_server=CNC,
        cnc_port=6667,
        beacon_interval=2.0,
    )
    defaults.update(overrides)
    return ScanBehavior(**defaults)


def infect_index_case(farm):
    farm.inject(tcp_packet(ATTACKER, TARGET, 4444, 135))
    farm.inject(tcp_packet(ATTACKER, TARGET, 4444, 135,
                           flags=TcpFlags.PSH | TcpFlags.ACK,
                           payload="exploit:blaster"))


class TestBotBehavior:
    def make_farm(self, policy):
        return Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment=policy, idle_timeout_seconds=60.0,
            clone_jitter=0.0, seed=6,
        ))

    def test_rendezvous_domain_captured_under_allow_dns(self):
        farm = self.make_farm("allow-dns")
        farm.register_worm(bot_behavior(farm))
        infect_index_case(farm)
        farm.run(until=10.0)
        assert farm.infection_count() == 1
        assert "cnc.badguys.example" in farm.dns_server.rendezvous_domains()

    def test_beacons_blocked_under_allow_dns(self):
        farm = self.make_farm("allow-dns")
        farm.register_worm(bot_behavior(farm))
        infect_index_case(farm)
        farm.run(until=10.0)
        vm = farm.gateway.vm_at(TARGET)
        assert vm.guest.beacons_sent >= 4  # it kept trying
        assert farm.metrics.counters().get("gateway.initiated_external_out", 0) == 0

    def test_beacons_escape_under_open_policy(self):
        farm = self.make_farm("open")
        escaped = []
        farm.gateway.external_sink = escaped.append
        farm.register_worm(bot_behavior(farm))
        infect_index_case(farm)
        farm.run(until=10.0)
        cnc_syns = [p for p in escaped
                    if p.dst == CNC and p.dst_port == 6667 and p.flags.is_syn]
        assert len(cnc_syns) >= 4

    def test_beacon_reflected_gets_rst_no_followup(self):
        """Under reflection the check-in lands on a honeypot with no IRC
        service: the stand-in RSTs and the bot's payload is never sent —
        but the farm observed the whole attempt."""
        farm = self.make_farm("reflect")
        farm.register_worm(bot_behavior(farm))
        infect_index_case(farm)
        farm.run(until=10.0)
        counters = farm.metrics.counters()
        assert counters.get("gateway.initiated_external_out", 0) == 0
        vm = farm.gateway.vm_at(TARGET)
        assert vm is not None and vm.guest.beacons_sent >= 4

    def test_beaconing_stops_when_guest_stopped(self):
        farm = self.make_farm("allow-dns")
        farm.register_worm(bot_behavior(farm))
        infect_index_case(farm)
        farm.run(until=5.0)
        vm = farm.gateway.vm_at(TARGET)
        count = vm.guest.beacons_sent
        vm.guest.stop()
        farm.run(until=20.0)
        assert vm.guest.beacons_sent == count

    def test_behavior_validation(self):
        with pytest.raises(ValueError):
            ScanBehavior("b", PROTO_TCP, 1, "exploit:b", 1.0,
                         beacon_interval=5.0)  # no cnc_server
        with pytest.raises(ValueError):
            ScanBehavior("b", PROTO_TCP, 1, "exploit:b", 1.0,
                         cnc_server=CNC, beacon_interval=0.0)
        with pytest.raises(ValueError):
            ScanBehavior("b", PROTO_TCP, 1, "exploit:b", 1.0, cnc_port=0)


class TestGuestDiskActivity:
    def make_farm(self):
        return Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="drop-all", clone_jitter=0.0, seed=4,
        ))

    def test_connections_write_disk_with_plateau(self):
        farm = self.make_farm()
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        for i in range(200):
            farm.sim.schedule(1.0 + 0.01 * i, farm.inject, tcp_packet(
                ATTACKER, TARGET, 1, 445,
                flags=TcpFlags.PSH | TcpFlags.ACK, payload=f"r{i}",
            ))
        farm.run(until=10.0)
        vm = farm.gateway.vm_at(TARGET)
        personality = vm.guest.personality
        assert 0 < vm.disk.private_blocks <= personality.disk_working_set_cap_blocks

    def test_infection_writes_worm_to_disk(self):
        farm = self.make_farm()
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=2.0)
        vm = farm.gateway.vm_at(TARGET)
        personality = vm.guest.personality
        assert vm.disk.private_blocks >= personality.infection_disk_blocks

    def test_same_worm_writes_same_disk_region(self):
        farm = self.make_farm()
        for i in (9, 10):
            farm.inject(udp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i}"),
                                   1, 1434, payload="exploit:slammer"))
        farm.run(until=2.0)
        vms = [farm.gateway.vm_at(IPAddress.parse(f"10.16.0.{i}")) for i in (9, 10)]
        blocks = [set(vm.disk.dirty_block_numbers()) for vm in vms]
        # Connection-log area may differ; the worm's install region must
        # overlap heavily.
        assert len(blocks[0] & blocks[1]) >= vms[0].guest.personality.infection_disk_blocks


class TestDedupOpportunity:
    def _storm(self, victims, **overrides):
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/27",), num_hosts=1,
            containment="drop-all", clone_jitter=0.0, seed=2,
            **overrides,
        )
        farm = Honeyfarm(config)
        for i in range(victims):
            farm.inject(udp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"),
                                   1, 1434, payload="exploit:slammer"))
        farm.run(until=3.0)
        return farm

    def test_worm_bodies_already_shared_live(self):
        """With the shared-frame store on (the default), the scanner
        finds every worm-body duplicate already collapsed: zero remaining
        opportunity, and the live ledger agrees with the scan."""
        victims = 8
        farm = self._storm(victims)
        stats = dedup_opportunity(farm.hosts)
        assert stats.vms_scanned == victims
        slammer_pages = 64  # catalog infection size
        # Each victim beyond the first shares its whole body live.
        assert stats.already_shared_frames == (victims - 1) * slammer_pages
        assert stats.shareable_frames == 0
        assert stats.savings_fraction == 0.0
        assert stats.largest_duplicate_group == victims
        memory = farm.hosts[0].memory
        assert memory.sharing_savings_frames == (victims - 1) * slammer_pages
        assert memory.shared_frames == slammer_pages

    def test_worm_bodies_shareable_with_sharing_off(self):
        """The ablation preserves the original measurement: the scan
        reports the duplicates a content-sharing VMM would reclaim."""
        victims = 8
        farm = self._storm(victims, content_sharing=False)
        stats = dedup_opportunity(farm.hosts)
        assert stats.vms_scanned == victims
        slammer_pages = 64  # catalog infection size
        assert stats.shareable_frames == (victims - 1) * slammer_pages
        assert stats.already_shared_frames == 0
        assert stats.largest_duplicate_group == victims
        assert 0.0 < stats.savings_fraction < 1.0
        assert farm.hosts[0].memory.sharing_savings_frames == 0

    def test_clean_vms_share_nothing(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/27",), num_hosts=1, clone_jitter=0.0,
        ))
        for i in range(5):
            farm.inject(tcp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"),
                                   1, 445))
        farm.run(until=2.0)
        stats = dedup_opportunity(farm.hosts)
        assert stats.shareable_frames == 0
        assert stats.savings_fraction == 0.0

    def test_render(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/27",), num_hosts=1, clone_jitter=0.0,
        ))
        rendered = dedup_opportunity(farm.hosts).render()
        assert "Content-based sharing" in rendered

    def test_empty_farm(self):
        farm = Honeyfarm(HoneyfarmConfig(prefixes=("10.16.0.0/27",), num_hosts=1))
        stats = dedup_opportunity(farm.hosts)
        assert stats.total_private_frames == 0
        assert stats.savings_fraction == 0.0
