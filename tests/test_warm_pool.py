"""Tests for the warm VM pool (pre-created clones awaiting an address)."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet, udp_packet
from repro.vmm.vm import VMState

ATTACKER = IPAddress.parse("203.0.113.5")
TARGET = IPAddress.parse("10.16.0.9")


def pooled_farm(**overrides):
    config = HoneyfarmConfig(
        prefixes=("10.16.0.0/25",), num_hosts=1,
        warm_pool_size=8, clone_jitter=0.0, seed=3,
        idle_timeout_seconds=30.0,
    ).with_overrides(**overrides)
    return Honeyfarm(config)


class TestPoolLifecycle:
    def test_pool_fills_to_target(self):
        farm = pooled_farm()
        farm.run(until=2.0)
        assert farm.pool_size == 8
        assert farm.metrics.counters()["farm.pool_clones"] == 8

    def test_pool_vms_are_parked_and_pristine(self):
        farm = pooled_farm()
        farm.run(until=2.0)
        for vm in farm._pool:
            assert vm.parked
            assert vm.state is VMState.RUNNING
            assert vm.private_pages == 0  # never activated
            assert not farm.inventory.covers(vm.ip)  # parked address

    def test_pool_survives_idle_reclamation(self):
        farm = pooled_farm(idle_timeout_seconds=1.0)
        farm.run(until=20.0)  # many sweep intervals past the timeout
        assert farm.pool_size == 8
        assert farm.metrics.counters().get("farm.vms_reclaimed", 0) == 0

    def test_pool_refills_after_hits(self):
        farm = pooled_farm()
        farm.run(until=2.0)
        for i in range(4):
            farm.inject(tcp_packet(ATTACKER, IPAddress(TARGET.value + i), 1, 445))
        farm.run(until=4.0)
        assert farm.pool_size == 8  # refilled
        assert farm.metrics.counters()["farm.pool_hits"] == 4


class TestPoolAssignment:
    def test_first_packet_served_an_order_of_magnitude_faster(self):
        farm = pooled_farm()
        farm.run(until=2.0)
        t0 = farm.sim.now
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        vm = farm.gateway.vm_map[TARGET]
        farm.run(until=t0 + 0.2)
        assert vm.state is VMState.RUNNING
        latency = vm.started_at - t0
        assert latency < 0.1          # identity swap only
        assert latency < 0.521 / 5    # ≫ faster than the full pipeline

    def test_assigned_vm_answers_and_can_be_infected(self):
        farm = pooled_farm()
        farm.run(until=2.0)
        farm.inject(udp_packet(ATTACKER, TARGET, 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=3.0)
        assert farm.infection_count() == 1
        assert farm.infections[0].victim == TARGET

    def test_pool_miss_falls_back_to_full_clone(self):
        farm = pooled_farm()
        # No warm-up: the first packet arrives before any pool VM is ready.
        t0 = farm.sim.now
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        vm = farm.gateway.vm_map[TARGET]
        farm.run(until=1.0)
        assert vm.state is VMState.RUNNING
        assert vm.started_at - t0 == pytest.approx(0.521, abs=0.05)
        assert farm.metrics.counters()["farm.pool_misses"] == 1

    def test_assigned_vm_is_reclaimed_normally(self):
        farm = pooled_farm(idle_timeout_seconds=2.0)
        farm.run(until=2.0)
        farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
        farm.run(until=20.0)
        assert TARGET not in farm.gateway.vm_map
        assert farm.metrics.counters()["farm.vms_reclaimed"] >= 1

    def test_pool_respects_personality(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/25", "10.17.0.0/25"),
            personality_by_prefix={"10.17.0.0/25": "linux-server"},
            num_hosts=1, warm_pool_size=4, clone_jitter=0.0, seed=3,
        ))
        farm.run(until=2.0)
        # The pool holds default (windows) VMs; a linux-prefix packet
        # must not receive one.
        t0 = farm.sim.now
        linux_target = IPAddress.parse("10.17.0.9")
        farm.inject(tcp_packet(ATTACKER, linux_target, 1, 80))
        vm = farm.gateway.vm_map[linux_target]
        farm.run(until=t0 + 1.0)
        assert vm.personality == "linux-server"
        assert vm.started_at - t0 > 0.4  # full clone, not a pool hit

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HoneyfarmConfig(warm_pool_size=-1)
