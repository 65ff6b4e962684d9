"""Unit tests for VM lifecycle, devices, snapshots, and physical hosts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import IPAddress
from repro.vmm.devices import DiskImage, VirtualBlockDevice, VirtualInterface
from repro.vmm.host import HostCapacityError, PhysicalHost
from repro.vmm.memory import GuestAddressSpace, PAGE_SIZE
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine, VMState

IP = IPAddress.parse("10.16.0.10")
IP2 = IPAddress.parse("10.16.0.11")


def make_vm(snapshot, ip=IP, created_at=0.0, eager=False):
    space = GuestAddressSpace(snapshot.image, eager_copy=eager)
    return VirtualMachine(snapshot, space, ip, created_at)


class TestVirtualInterface:
    def test_macs_are_unique(self):
        assert VirtualInterface().mac != VirtualInterface().mac

    def test_mac_is_locally_administered(self):
        assert VirtualInterface().mac.startswith("02:70:6b:")

    def test_ip_reassignment(self):
        vif = VirtualInterface()
        assert vif.ip is None
        vif.assign_ip(IP)
        assert vif.ip == IP


class TestVirtualBlockDevice:
    @pytest.fixture
    def disk_image(self):
        return DiskImage(block_count=100)

    def test_cow_write_tracking(self, disk_image):
        dev = VirtualBlockDevice(disk_image)
        assert dev.write(5) is True    # first write allocates
        assert dev.write(5) is False   # rewrite does not
        assert dev.private_blocks == 1
        assert dev.private_bytes == 4096

    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 12)), max_size=30))
    def test_extents_hold_exactly_the_written_blocks(self, writes):
        dev = VirtualBlockDevice(DiskImage(block_count=112))
        written = set()
        for block, count in writes:
            first_writes = set(range(block, block + count)) - written
            assert dev.write_run(block, count) == len(first_writes)
            written |= first_writes
        assert dev.private_blocks == len(written)
        assert sorted(dev.dirty_block_numbers()) == sorted(written)
        assert [dev.read(b) for b in range(112)] == [b in written for b in range(112)]
        # Ascending, disjoint and non-touching: one extent per stretch.
        bounds = dev._extents or []
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_read_reports_overlay_hit(self, disk_image):
        dev = VirtualBlockDevice(disk_image)
        assert dev.read(3) is False
        dev.write(3)
        assert dev.read(3) is True

    def test_detach_releases_image(self, disk_image):
        dev = VirtualBlockDevice(disk_image)
        assert disk_image.sharers == 1
        dev.detach()
        assert disk_image.sharers == 0
        with pytest.raises(ValueError):
            dev.write(0)

    def test_detach_idempotent(self, disk_image):
        dev = VirtualBlockDevice(disk_image)
        dev.detach()
        dev.detach()

    def test_block_bounds(self, disk_image):
        dev = VirtualBlockDevice(disk_image)
        with pytest.raises(IndexError):
            dev.write(100)

    def test_disk_image_validation(self):
        with pytest.raises(ValueError):
            DiskImage(block_count=0)


class TestReferenceSnapshot:
    def test_snapshot_charges_host_memory(self, host):
        # conftest host already has one 128 MiB snapshot installed
        assert host.memory.allocated_frames == (128 << 20) // PAGE_SIZE

    def test_active_clones_tracks_sharers(self, snapshot):
        vm = make_vm(snapshot)
        assert snapshot.active_clones == 1
        vm.destroy(now=1.0)
        assert snapshot.active_clones == 0

    def test_release_requires_no_clones(self, snapshot):
        vm = make_vm(snapshot)
        with pytest.raises(ValueError):
            snapshot.release()
        vm.destroy(now=1.0)
        snapshot.release()

    def test_image_too_small_rejected(self, host):
        with pytest.raises(ValueError):
            ReferenceSnapshot(host.memory, image_bytes=100)


class TestVMLifecycle:
    def test_initial_state_is_cloning(self, snapshot):
        vm = make_vm(snapshot)
        assert vm.state is VMState.CLONING
        assert vm.is_live

    def test_start_transitions_to_running(self, snapshot):
        vm = make_vm(snapshot)
        vm.start(now=0.5)
        assert vm.state is VMState.RUNNING
        assert vm.started_at == 0.5

    def test_cannot_start_twice(self, snapshot):
        vm = make_vm(snapshot)
        vm.start(now=0.5)
        with pytest.raises(ValueError):
            vm.start(now=0.6)

    def test_pause_resume(self, snapshot):
        vm = make_vm(snapshot)
        vm.start(now=0.5)
        vm.pause(now=1.0)
        assert vm.state is VMState.PAUSED
        vm.resume(now=2.0)
        assert vm.state is VMState.RUNNING

    def test_cannot_pause_cloning_vm(self, snapshot):
        vm = make_vm(snapshot)
        with pytest.raises(ValueError):
            vm.pause(now=0.1)

    def test_destroy_frees_private_memory(self, snapshot, host):
        vm = make_vm(snapshot)
        vm.start(now=0.0)
        vm.address_space.write(0)
        vm.address_space.write(1)
        baseline = host.memory.allocated_frames
        freed = vm.destroy(now=5.0)
        assert freed == 2
        assert host.memory.allocated_frames == baseline - 2
        assert vm.state is VMState.DESTROYED
        assert not vm.is_live

    def test_destroy_detaches_disk(self, snapshot):
        vm = make_vm(snapshot)
        assert snapshot.disk.sharers == 1
        vm.destroy(now=1.0)
        assert snapshot.disk.sharers == 0

    def test_destroy_idempotent(self, snapshot):
        vm = make_vm(snapshot)
        vm.destroy(now=1.0)
        assert vm.destroy(now=2.0) == 0

    def test_idle_tracking(self, snapshot):
        vm = make_vm(snapshot)
        vm.start(now=1.0)
        vm.touch(now=4.0)
        assert vm.idle_for(now=10.0) == 6.0

    def test_lifetime(self, snapshot):
        vm = make_vm(snapshot, created_at=2.0)
        assert vm.lifetime(now=10.0) == 8.0
        vm.destroy(now=7.0)
        assert vm.lifetime(now=100.0) == 5.0

    def test_vm_ids_unique(self, snapshot):
        assert make_vm(snapshot).vm_id != make_vm(snapshot, ip=IP2).vm_id

    def test_personality_comes_from_snapshot(self, snapshot):
        assert make_vm(snapshot).personality == "windows-default"


class TestPhysicalHost:
    def test_admit_and_evict(self, host, snapshot):
        vm = make_vm(snapshot)
        host.admit(vm)
        assert host.live_vms == 1
        assert vm.host_id == host.host_id
        host.evict(vm, now=1.0)
        assert host.live_vms == 0
        assert host.vms_destroyed_total == 1

    def test_vm_ceiling_enforced(self, snapshot):
        small = PhysicalHost(memory_bytes=1 << 30, max_vms=2)
        small_snapshot = ReferenceSnapshot(small.memory, image_bytes=16 << 20)
        small.install_snapshot(small_snapshot)
        for ip in (IP, IP2):
            small.admit(make_vm(small_snapshot, ip=ip))
        with pytest.raises(HostCapacityError):
            small.admit(make_vm(small_snapshot, ip=IPAddress.parse("10.16.0.12")))

    def test_evict_unknown_vm_rejected(self, host, snapshot):
        vm = make_vm(snapshot)
        with pytest.raises(KeyError):
            host.evict(vm, now=1.0)

    def test_peak_live_vms(self, host, snapshot):
        vms = [make_vm(snapshot, ip=IPAddress(IP.value + i)) for i in range(3)]
        for vm in vms:
            host.admit(vm)
        host.evict(vms[0], now=1.0)
        assert host.peak_live_vms == 3

    def test_idle_vms_sorted_most_idle_first(self, host, snapshot):
        vms = [make_vm(snapshot, ip=IPAddress(IP.value + i)) for i in range(3)]
        for i, vm in enumerate(vms):
            host.admit(vm)
            vm.start(now=0.0)
            vm.touch(now=float(i))  # vm0 most idle
        idle = host.idle_vms(now=10.0, threshold=8.5)
        assert [vm.vm_id for vm in idle] == [vms[0].vm_id, vms[1].vm_id]
        all_idle = host.idle_vms(now=10.0, threshold=5.0)
        assert [vm.vm_id for vm in all_idle] == [vm.vm_id for vm in vms]

    def test_idle_vms_excludes_cloning_and_paused(self, host, snapshot):
        cloning = make_vm(snapshot)
        running = make_vm(snapshot, ip=IP2)
        host.admit(cloning)
        host.admit(running)
        running.start(now=0.0)
        idle = host.idle_vms(now=100.0, threshold=1.0)
        assert [vm.vm_id for vm in idle] == [running.vm_id]

    def test_snapshot_for_unknown_personality(self, host):
        with pytest.raises(KeyError):
            host.snapshot_for("nonexistent")

    def test_duplicate_personality_rejected(self, host):
        extra = ReferenceSnapshot(host.memory, personality="windows-default",
                                  image_bytes=16 << 20)
        with pytest.raises(ValueError):
            host.install_snapshot(extra)

    def test_foreign_snapshot_rejected(self, host):
        other = PhysicalHost()
        foreign = ReferenceSnapshot(other.memory, personality="linux-server")
        with pytest.raises(ValueError):
            host.install_snapshot(foreign)

    def test_total_private_pages(self, host, snapshot):
        vm = make_vm(snapshot)
        host.admit(vm)
        vm.start(now=0.0)
        vm.address_space.write(0)
        vm.address_space.write(1)
        assert host.total_private_pages() == 2

    def test_memory_utilization(self, host):
        assert 0.0 < host.memory_utilization < 1.0
