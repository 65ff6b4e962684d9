"""Tests for VM placement policies."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.core.placement import (
    LeastLoadedPlacement,
    PackingPlacement,
    RoundRobinPlacement,
    make_placement,
)
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet
from repro.vmm.host import PhysicalHost
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine

ATTACKER = IPAddress.parse("203.0.113.2")


def make_cluster(n=3, memory_bytes=1 << 30, max_vms=64):
    hosts = []
    for i in range(n):
        host = PhysicalHost(i, memory_bytes=memory_bytes, max_vms=max_vms)
        snap = ReferenceSnapshot(host.memory, image_bytes=64 << 20)
        host.install_snapshot(snap)
        hosts.append(host)
    return hosts


def admit_vm(host, pages=0):
    snap = host.snapshot_for("windows-default")
    vm = VirtualMachine(snap, GuestAddressSpace(snap.image),
                        IPAddress.parse("10.0.0.1"), 0.0,
                        vm_id=host.vms_created_total + 1)
    host.admit(vm)
    for page in range(pages):
        vm.address_space.write(page)
    return vm


class TestLeastLoaded:
    def test_picks_lowest_memory_utilisation(self):
        hosts = make_cluster()
        admit_vm(hosts[0], pages=5000)
        admit_vm(hosts[1], pages=100)
        policy = LeastLoadedPlacement()
        assert policy.select(hosts, "windows-default") is hosts[2]

    def test_skips_hosts_without_personality(self):
        hosts = make_cluster(2)
        policy = LeastLoadedPlacement()
        assert policy.select(hosts, "linux-server") is None

    def test_skips_full_hosts(self):
        hosts = make_cluster(2, max_vms=1)
        admit_vm(hosts[0])
        policy = LeastLoadedPlacement()
        assert policy.select(hosts, "windows-default") is hosts[1]
        admit_vm(hosts[1])
        assert policy.select(hosts, "windows-default") is None


class TestRoundRobin:
    def test_rotates_over_hosts(self):
        hosts = make_cluster(3)
        policy = RoundRobinPlacement()
        picks = [policy.select(hosts, "windows-default") for __ in range(6)]
        assert picks[:3] == hosts
        assert picks[3:] == hosts

    def test_rotation_skips_ineligible(self):
        hosts = make_cluster(3, max_vms=1)
        admit_vm(hosts[1])
        policy = RoundRobinPlacement()
        picks = {policy.select(hosts, "windows-default") for __ in range(4)}
        assert hosts[1] not in picks


class TestPacking:
    def test_fills_first_host_first(self):
        hosts = make_cluster(3, max_vms=2)
        policy = PackingPlacement()
        assert policy.select(hosts, "windows-default") is hosts[0]
        admit_vm(hosts[0])
        assert policy.select(hosts, "windows-default") is hosts[0]
        admit_vm(hosts[0])
        assert policy.select(hosts, "windows-default") is hosts[1]


class TestFactory:
    def test_names_resolve(self):
        for name in ("least-loaded", "round-robin", "pack"):
            assert make_placement(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_placement("magic")

    def test_config_validates_policy(self):
        with pytest.raises(ValueError):
            HoneyfarmConfig(placement_policy="magic")


class TestPlacementOnLiveFarm:
    def run_farm(self, policy, addresses=30):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=3,
            placement_policy=policy, clone_jitter=0.0, seed=5,
            idle_timeout_seconds=600.0,
        ))
        for i in range(addresses):
            farm.inject(tcp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"),
                                   1000 + i, 445))
        farm.run(until=5.0)
        return [host.live_vms for host in farm.hosts]

    def test_least_loaded_balances(self):
        counts = self.run_farm("least-loaded")
        assert max(counts) - min(counts) <= 1

    def test_round_robin_balances(self):
        counts = self.run_farm("round-robin")
        assert max(counts) - min(counts) <= 1

    def test_pack_concentrates(self):
        counts = self.run_farm("pack")
        assert counts[0] == 30
        assert counts[1] == counts[2] == 0
