"""Direct unit tests for delta-virtualization accounting."""

import pytest

from repro.core.delta import MemoryBreakdown, farm_memory_breakdown, host_memory_breakdown
from repro.net.addr import IPAddress
from repro.vmm.host import PhysicalHost
from repro.vmm.memory import GuestAddressSpace, PAGE_SIZE
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine


def make_host_with_vms(vm_count=3, pages_each=100, image_bytes=64 << 20):
    host = PhysicalHost(0, memory_bytes=1 << 30)
    snapshot = ReferenceSnapshot(host.memory, image_bytes=image_bytes)
    host.install_snapshot(snapshot)
    for i in range(vm_count):
        vm = VirtualMachine(
            snapshot, GuestAddressSpace(snapshot.image),
            IPAddress.parse(f"10.0.0.{i + 1}"), 0.0, vm_id=i + 1,
        )
        host.admit(vm)
        for page in range(pages_each):
            vm.address_space.write(page)
    return host, snapshot


class TestHostBreakdown:
    def test_exact_accounting(self):
        host, snapshot = make_host_with_vms(vm_count=3, pages_each=100)
        breakdown = host_memory_breakdown(host)
        assert breakdown.image_resident == snapshot.image_bytes
        assert breakdown.private_resident == 3 * 100 * PAGE_SIZE
        assert breakdown.live_vms == 3
        assert breakdown.total_resident == (
            snapshot.image_bytes + 3 * 100 * PAGE_SIZE
        )
        assert breakdown.full_copy_equivalent == 4 * snapshot.image_bytes

    def test_mean_private_per_vm(self):
        host, __ = make_host_with_vms(vm_count=4, pages_each=50)
        breakdown = host_memory_breakdown(host)
        assert breakdown.mean_private_per_vm == pytest.approx(50 * PAGE_SIZE)

    def test_consolidation_factor(self):
        host, snapshot = make_host_with_vms(vm_count=10, pages_each=10)
        breakdown = host_memory_breakdown(host)
        expected = (11 * snapshot.image_bytes) / (
            snapshot.image_bytes + 10 * 10 * PAGE_SIZE
        )
        assert breakdown.consolidation_factor == pytest.approx(expected)
        assert breakdown.consolidation_factor > 10

    def test_released_image_excluded(self):
        host = PhysicalHost(0, memory_bytes=1 << 30)
        snapshot = ReferenceSnapshot(host.memory, image_bytes=64 << 20)
        host.install_snapshot(snapshot)
        snapshot.release()
        breakdown = host_memory_breakdown(host)
        assert breakdown.image_resident == 0
        assert breakdown.consolidation_factor == 1.0  # nothing resident

    def test_utilization(self):
        host, snapshot = make_host_with_vms(vm_count=1, pages_each=0)
        breakdown = host_memory_breakdown(host)
        assert breakdown.utilization == pytest.approx(
            snapshot.image_bytes / host.memory.capacity_bytes
        )


class TestMergeAndFarm:
    def test_merged_with_sums_fields(self):
        a = MemoryBreakdown(capacity=10, image_resident=2, private_resident=3,
                            live_vms=1, full_copy_equivalent=8)
        b = MemoryBreakdown(capacity=20, image_resident=4, private_resident=5,
                            live_vms=2, full_copy_equivalent=16)
        merged = a.merged_with(b)
        assert merged.capacity == 30
        assert merged.image_resident == 6
        assert merged.private_resident == 8
        assert merged.live_vms == 3
        assert merged.full_copy_equivalent == 24

    def test_farm_breakdown_over_multiple_hosts(self):
        host1, __ = make_host_with_vms(vm_count=2, pages_each=10)
        host2, __ = make_host_with_vms(vm_count=3, pages_each=20)
        breakdown = farm_memory_breakdown([host1, host2])
        assert breakdown.live_vms == 5
        assert breakdown.private_resident == (2 * 10 + 3 * 20) * PAGE_SIZE

    def test_zero_vm_edge_cases(self):
        empty = MemoryBreakdown(capacity=0, image_resident=0, private_resident=0,
                                live_vms=0, full_copy_equivalent=0)
        assert empty.mean_private_per_vm == 0.0
        assert empty.consolidation_factor == 1.0
        assert empty.utilization == 0.0
