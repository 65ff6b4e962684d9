"""Integration-grade unit tests for the Honeyfarm orchestrator."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_UDP, TcpFlags, icmp_packet, tcp_packet, udp_packet
from repro.services.guest import ScanBehavior
from repro.vmm.memory import PINNED
from repro.vmm.vm import VMState

ATTACKER = IPAddress.parse("203.0.113.7")
TARGET = IPAddress.parse("10.16.0.25")

SLAMMER = ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=50.0)


def probe(dst=TARGET, sport=4000):
    return tcp_packet(ATTACKER, dst, sport, 445)


class TestOnDemandCloning:
    def test_packet_to_dark_address_creates_vm(self, small_farm):
        small_farm.inject(probe())
        assert small_farm.live_vms == 1
        vm = small_farm.gateway.vm_map[TARGET]
        assert vm.state is VMState.CLONING
        small_farm.run(until=1.0)
        assert vm.state is VMState.RUNNING

    def test_first_packet_answered_after_clone_completes(self, small_farm):
        small_farm.inject(probe())
        small_farm.run(until=1.0)
        # SYN got a SYN/ACK: the reply left on the external path.
        counters = small_farm.metrics.counters()
        assert counters["gateway.reply_external_out"] == 1

    def test_same_address_reuses_vm(self, small_farm):
        small_farm.inject(probe(sport=1))
        small_farm.run(until=1.0)
        small_farm.inject(probe(sport=2))
        small_farm.run(until=2.0)
        assert small_farm.metrics.counters()["farm.vms_spawned"] == 1

    def test_distinct_addresses_get_distinct_vms(self, small_farm):
        for i in range(5):
            small_farm.inject(probe(dst=IPAddress(TARGET.value + i)))
        small_farm.run(until=1.0)
        assert small_farm.live_vms == 5

    def test_personality_selected_by_prefix(self):
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/24", "10.17.0.0/24"),
            personality_by_prefix={"10.17.0.0/24": "linux-server"},
            num_hosts=1,
            clone_jitter=0.0,
        )
        farm = Honeyfarm(config)
        farm.inject(probe(dst=IPAddress.parse("10.16.0.1")))
        farm.inject(probe(dst=IPAddress.parse("10.17.0.1")))
        farm.run(until=1.0)
        personalities = {vm.personality for vm in farm.gateway.vm_map.values()}
        assert personalities == {"windows-default", "linux-server"}

    def test_unknown_personality_rejected_at_build(self):
        config = HoneyfarmConfig(default_personality="martian")
        with pytest.raises(ValueError):
            Honeyfarm(config)

    def test_fidelity_ping(self, small_farm):
        small_farm.inject(icmp_packet(ATTACKER, TARGET))
        small_farm.run(until=1.0)
        assert small_farm.metrics.counters()["gateway.reply_external_out"] == 1


class TestReclamation:
    def test_idle_vm_reclaimed_after_timeout(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=5.0, clone_jitter=0.0,
        ))
        farm.inject(probe())
        farm.run(until=20.0)
        assert farm.live_vms == 0
        assert farm.metrics.counters()["farm.vms_reclaimed"] == 1

    def test_activity_defers_reclamation(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=5.0, clone_jitter=0.0,
        ))
        farm.inject(probe(sport=1))
        for t in (4.0, 8.0, 12.0):
            farm.sim.schedule_at(t, farm.inject, probe(sport=int(t)))
        farm.run(until=13.0)
        assert farm.live_vms == 1  # continuously refreshed
        farm.run(until=30.0)
        assert farm.live_vms == 0

    def test_reclaimed_address_can_be_reinstantiated(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=5.0, clone_jitter=0.0,
        ))
        farm.inject(probe())
        farm.run(until=20.0)
        farm.inject(probe(sport=4001))
        farm.run(until=21.0)
        assert farm.live_vms == 1
        assert farm.metrics.counters()["farm.vms_spawned"] == 2

    def test_memory_freed_on_reclamation(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=5.0, clone_jitter=0.0,
        ))
        farm.inject(probe())
        farm.run(until=2.0)
        resident = farm.memory_breakdown().private_resident
        assert resident > 0
        farm.run(until=20.0)
        assert farm.memory_breakdown().private_resident == 0

    def test_pressure_skips_a_vm_holding_only_shared_frames(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=600.0, clone_jitter=0.0,
        ))
        targets = [IPAddress(TARGET.value + i) for i in range(3)]
        for i, dst in enumerate(targets):
            farm.inject(probe(dst=dst, sport=4000 + i))
        farm.run(until=1.0)
        oldest, next_oldest, newest = (farm.gateway.vm_map[dst] for dst in targets)
        for age, vm in enumerate((oldest, next_oldest, newest)):
            vm.touch(now=float(age))
        # A worm body covers every page the least recently active VM
        # dirtied, and the newest VM carries the same body there, so
        # evicting the oldest would free nothing.
        for page in list(oldest.address_space.private_page_numbers()):
            body_page = PINNED | page
            oldest.address_space.write(page, body_page)
            newest.address_space.write(page, body_page)
        assert oldest.reclaimable_frames == 0 < next_oldest.reclaimable_frames
        host = farm.hosts[0]
        assert farm._relieve_pressure(newest)
        assert host.get_vm(oldest.vm_id) is oldest
        assert host.get_vm(next_oldest.vm_id) is None
        assert farm.metrics.counters()["farm.pressure_evictions"] == 1

    def test_detain_infected_keeps_vm_resident(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            idle_timeout_seconds=5.0, clone_jitter=0.0,
            detain_infected=True, max_detained=8,
        ))
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=30.0)
        assert len(farm.detained) == 1
        detained = farm.detained[0]
        assert detained.state is VMState.PAUSED
        assert detained.guest.infected
        # The address is free for a fresh clone even while detention holds.
        farm.inject(probe())
        farm.run(until=31.0)
        assert farm.gateway.vm_map[TARGET].vm_id != detained.vm_id


class TestInfectionAndContainment:
    def test_exploit_infects_and_is_recorded(self, small_farm):
        small_farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434,
                                     payload="exploit:slammer"))
        small_farm.run(until=2.0)
        assert small_farm.infection_count() == 1
        record = small_farm.infections[0]
        assert record.worm_name == "slammer"
        assert record.generation == 0
        assert record.source == ATTACKER

    def test_reflection_produces_multigeneration_epidemic(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/25",), num_hosts=1,
            containment="reflect", idle_timeout_seconds=30.0, clone_jitter=0.0,
        ))
        farm.register_worm(SLAMMER)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=6.0)
        generations = {r.generation for r in farm.infections}
        assert len(farm.infections) > 3
        assert max(generations) >= 1  # onward, multi-stage spread observed
        assert farm.metrics.counters().get("gateway.initiated_external_out", 0) == 0

    def test_tcp_worm_propagates_through_reflection(self):
        """TCP worms must complete the handshake against the reflected
        stand-in before delivering the exploit (regression: exploits on
        the SYN were silently ignored and TCP worms never spread)."""
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="reflect", idle_timeout_seconds=30.0, clone_jitter=0.0,
        ))
        farm.register_worm(ScanBehavior(
            "blaster", 6, 135, "exploit:blaster", scan_rate=30.0,
        ))
        farm.inject(tcp_packet(ATTACKER, TARGET, 4444, 135))
        farm.inject(tcp_packet(ATTACKER, TARGET, 4444, 135,
                               flags=TcpFlags.PSH | TcpFlags.ACK,
                               payload="exploit:blaster"))
        farm.run(until=10.0)
        assert farm.infection_count() > 1
        assert max(r.generation for r in farm.infections) >= 1

    def test_drop_all_stops_onward_spread(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            containment="drop-all", idle_timeout_seconds=30.0, clone_jitter=0.0,
        ))
        farm.register_worm(SLAMMER)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=10.0)
        assert farm.infection_count() == 1  # only the index case
        counters = farm.metrics.counters()
        assert counters.get("gateway.initiated_external_out", 0) == 0
        assert counters["gateway.outbound.dropped"] > 0

    def test_open_policy_lets_scans_escape(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            containment="open", idle_timeout_seconds=30.0, clone_jitter=0.0,
        ))
        farm.register_worm(SLAMMER)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=10.0)
        assert farm.metrics.counters()["gateway.initiated_external_out"] > 0

    def test_allow_dns_permits_only_dns(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            containment="allow-dns", idle_timeout_seconds=30.0, clone_jitter=0.0,
        ))
        blaster_like = ScanBehavior(
            "slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=20.0,
            dns_lookup_first=True, dns_server=farm.dns_server.address,
        )
        farm.register_worm(blaster_like)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=10.0)
        counters = farm.metrics.counters()
        assert counters["gateway.dns_answered"] >= 1
        assert counters.get("gateway.initiated_external_out", 0) == 0
        assert counters["gateway.outbound.dropped"] > 0
        assert farm.infection_count() == 1  # no reflection → no onward spread

    def test_rate_limit_caps_escapes_under_open(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            containment="open", outbound_rate_limit=2.0,
            idle_timeout_seconds=30.0, clone_jitter=0.0,
        ))
        farm.register_worm(SLAMMER)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=10.0)
        counters = farm.metrics.counters()
        escaped = counters["gateway.initiated_external_out"]
        # 50 scans/s generated, but at most ~2/s (plus burst) may pass.
        assert 0 < escaped <= 2.0 * 10.0 + 10


class TestMemoryPressure:
    def test_pressure_eviction_keeps_farm_alive(self):
        """A /24 flooded simultaneously on a deliberately tiny host must
        survive via pressure evictions rather than crash on OOM."""
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            host_memory_bytes=256 << 20,  # image 128 MiB + little headroom
            idle_timeout_seconds=60.0, clone_jitter=0.0,
            memory_pressure_threshold=0.9,
        ))
        for i in range(64):
            farm.inject(tcp_packet(ATTACKER, IPAddress(TARGET.value - 25 + i), 80, 80))
        farm.run(until=30.0)
        counters = farm.metrics.counters()
        host = farm.hosts[0]
        assert host.memory.allocated_frames <= host.memory.capacity_frames
        assert counters["farm.vms_spawned"] > 0

    def test_breakdown_aggregates_cluster(self, small_farm):
        small_farm.inject(probe())
        small_farm.run(until=2.0)
        breakdown = small_farm.memory_breakdown()
        assert breakdown.live_vms == 1
        assert breakdown.image_resident == 128 << 20
        assert breakdown.consolidation_factor > 1.0


class TestDeterminism:
    def run_once(self, seed=5):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            idle_timeout_seconds=10.0, seed=seed,
        ))
        farm.register_worm(SLAMMER)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434, payload="exploit:slammer"))
        farm.run(until=6.0)
        return (
            farm.infection_count(),
            farm.live_vms,
            farm.metrics.counters(),
        )

    def test_same_seed_identical_outcome(self):
        assert self.run_once() == self.run_once()

    def test_different_seed_differs(self):
        # Not guaranteed in principle, but overwhelmingly likely for an
        # epidemic run; a collision here would itself be suspicious.
        assert self.run_once(seed=5) != self.run_once(seed=6)
