"""Unit tests for VM reclamation policies."""

import pytest

from repro.core.reclamation import (
    CompositeReclamation,
    IdleTimeoutPolicy,
    MemoryPressurePolicy,
    ReclamationPlan,
)
from repro.net.addr import IPAddress
from repro.services.guest import GuestHost
from repro.services.personality import default_registry
from repro.sim.rand import RandomStream
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

BASE_IP = IPAddress.parse("10.16.0.10")


def add_running_vm(host, snapshot, index, last_activity=0.0):
    vm = VirtualMachine(
        snapshot, GuestAddressSpace(snapshot.image), IPAddress(BASE_IP + index), 0.0,
        vm_id=index + 1,
    )
    host.admit(vm)
    vm.start(now=0.0)
    vm.touch(now=last_activity)
    return vm


def infect(vm, sim, registry):
    """Attach a guest and mark it infected via a real exploit path."""
    from repro.net.packet import udp_packet

    guest = GuestHost(
        vm=vm, personality=registry.get("windows-default"),
        catalog=registry.catalog, sim=sim, rng=RandomStream(vm.vm_id),
    )
    exploit = udp_packet(IPAddress.parse("203.0.113.9"), vm.ip, 1, 1434,
                         payload="exploit:slammer")
    guest.handle_packet(exploit, vm.last_activity)
    assert guest.infected
    return guest


class TestIdleTimeoutPolicy:
    def test_idle_vms_selected(self, host, snapshot):
        vm_idle = add_running_vm(host, snapshot, 0, last_activity=0.0)
        vm_busy = add_running_vm(host, snapshot, 1, last_activity=95.0)
        plan = IdleTimeoutPolicy(timeout=60.0).plan(host, now=100.0)
        assert [vm.vm_id for vm in plan.destroy] == [vm_idle.vm_id]
        assert plan.detain == []

    def test_nothing_idle_means_empty_plan(self, host, snapshot):
        add_running_vm(host, snapshot, 0, last_activity=99.0)
        plan = IdleTimeoutPolicy(timeout=60.0).plan(host, now=100.0)
        assert plan.total == 0

    def test_detain_infected(self, host, snapshot, sim, registry):
        vm = add_running_vm(host, snapshot, 0, last_activity=0.0)
        infect(vm, sim, registry)
        policy = IdleTimeoutPolicy(timeout=60.0, detain_infected=True, max_detained=4)
        plan = policy.plan(host, now=100.0)
        assert plan.detain == [vm]
        assert plan.destroy == []
        assert policy.detained_total == 1

    def test_detention_budget_enforced(self, host, snapshot, sim, registry):
        vms = [add_running_vm(host, snapshot, i, last_activity=0.0) for i in range(3)]
        for vm in vms:
            infect(vm, sim, registry)
        policy = IdleTimeoutPolicy(timeout=60.0, detain_infected=True, max_detained=2)
        plan = policy.plan(host, now=100.0)
        assert len(plan.detain) == 2
        assert len(plan.destroy) == 1

    def test_clean_vms_never_detained(self, host, snapshot):
        add_running_vm(host, snapshot, 0, last_activity=0.0)
        policy = IdleTimeoutPolicy(timeout=60.0, detain_infected=True)
        plan = policy.plan(host, now=100.0)
        assert plan.detain == []
        assert len(plan.destroy) == 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            IdleTimeoutPolicy(timeout=0.0)


class TestMemoryPressurePolicy:
    def make_loaded_host(self, host, snapshot, vm_count=4, pages_each=2000):
        vms = []
        for i in range(vm_count):
            vm = add_running_vm(host, snapshot, i, last_activity=float(i))
            for page in range(pages_each):
                vm.address_space.write(page)
            vms.append(vm)
        return vms

    def test_no_plan_below_threshold(self, host, snapshot):
        self.make_loaded_host(host, snapshot)
        policy = MemoryPressurePolicy(threshold=0.99)
        assert policy.plan(host, now=100.0).total == 0
        assert policy.pressure_events == 0

    def test_evicts_lru_first_until_below_threshold(self, host, snapshot):
        vms = self.make_loaded_host(host, snapshot)
        util = host.memory_utilization
        # A threshold just below current utilisation forces ~one eviction.
        policy = MemoryPressurePolicy(threshold=util - 0.002)
        plan = policy.plan(host, now=100.0)
        assert plan.total >= 1
        assert plan.destroy[0].vm_id == vms[0].vm_id  # least recently active
        assert policy.pressure_events == 1

    def test_deep_pressure_evicts_many(self, host, snapshot):
        self.make_loaded_host(host, snapshot, vm_count=6)
        # allocated = 32768 image + 12000 private; threshold 0.07 allows
        # 36700 frames, so exactly 5 evictions (5 x 2000 freed) suffice.
        policy = MemoryPressurePolicy(threshold=0.07)
        plan = policy.plan(host, now=100.0)
        assert plan.total == 5

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MemoryPressurePolicy(threshold=0.0)
        with pytest.raises(ValueError):
            MemoryPressurePolicy(threshold=1.1)


class TestCompositeReclamation:
    def test_merges_without_duplicates(self, host, snapshot):
        add_running_vm(host, snapshot, 0, last_activity=0.0)
        composite = CompositeReclamation([
            IdleTimeoutPolicy(timeout=10.0),
            IdleTimeoutPolicy(timeout=20.0),  # selects the same VM
        ])
        plan = composite.plan(host, now=100.0)
        assert plan.total == 1

    def test_detain_wins_over_destroy_on_first_policy(self, host, snapshot, sim, registry):
        vm = add_running_vm(host, snapshot, 0, last_activity=0.0)
        infect(vm, sim, registry)
        composite = CompositeReclamation([
            IdleTimeoutPolicy(timeout=10.0, detain_infected=True),
            IdleTimeoutPolicy(timeout=20.0),
        ])
        plan = composite.plan(host, now=100.0)
        assert plan.detain == [vm]
        assert plan.destroy == []

    def test_requires_at_least_one_policy(self):
        with pytest.raises(ValueError):
            CompositeReclamation([])


class TestReclamationPlan:
    def test_merge_keeps_first_occurrence(self, host, snapshot):
        vm1 = add_running_vm(host, snapshot, 0)
        vm2 = add_running_vm(host, snapshot, 1)
        a = ReclamationPlan(destroy=[vm1])
        b = ReclamationPlan(destroy=[vm1, vm2], detain=[])
        merged = a.merge(b)
        assert [vm.vm_id for vm in merged.destroy] == [vm1.vm_id, vm2.vm_id]
