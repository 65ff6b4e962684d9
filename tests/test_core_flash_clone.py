"""Unit tests for the flash-cloning engine (and its ablation modes)."""

import pytest

from repro.core.flash_clone import FlashCloneEngine
from repro.net.addr import IPAddress
from repro.vmm.host import HostCapacityError, PhysicalHost
from repro.vmm.latency import CloneCostModel
from repro.vmm.memory import OutOfMemoryError
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VMState

IP = IPAddress.parse("10.16.0.20")


@pytest.fixture
def engine(sim):
    return FlashCloneEngine(sim, CloneCostModel(jitter=0.0))


class TestFlashClone:
    def test_vm_starts_in_cloning_state(self, sim, engine, host, snapshot):
        vm = engine.clone(host, snapshot, IP)
        assert vm.state is VMState.CLONING
        assert engine.in_flight == 1

    def test_vm_running_after_pipeline_latency(self, sim, engine, host, snapshot):
        vm = engine.clone(host, snapshot, IP)
        sim.run()
        assert vm.state is VMState.RUNNING
        assert sim.now == pytest.approx(0.521)
        assert engine.in_flight == 0

    def test_on_ready_callback_with_result(self, sim, engine, host, snapshot):
        results = []
        engine.clone(host, snapshot, IP, on_ready=results.append)
        sim.run()
        assert len(results) == 1
        result = results[0]
        assert result.total_seconds == pytest.approx(0.521)
        assert set(result.stage_seconds()) == {
            "domain_create", "memory_cow_setup", "device_setup",
            "network_reconfig", "toolstack",
        }

    def test_clone_has_target_ip_and_cow_memory(self, sim, engine, host, snapshot):
        vm = engine.clone(host, snapshot, IP)
        assert vm.ip == IP
        assert vm.private_pages == 0  # delta virtualization: nothing copied

    def test_clone_admitted_to_host(self, sim, engine, host, snapshot):
        vm = engine.clone(host, snapshot, IP)
        assert host.live_vms == 1
        assert vm.host_id == host.host_id
        assert snapshot.clones_created == 1

    def test_metrics_recorded(self, sim, engine, host, snapshot):
        engine.clone(host, snapshot, IP)
        sim.run()
        assert engine.metrics.counter("clone.completed").value == 1
        hist = engine.metrics.histogram("clone.latency_seconds")
        assert hist.count == 1

    def test_stage_breakdown_means(self, sim, engine, host, snapshot):
        for i in range(3):
            engine.clone(host, snapshot, IPAddress(IP + i))
        sim.run()
        breakdown = engine.stage_breakdown_ms()
        assert breakdown["toolstack"] == pytest.approx(279.0)
        assert sum(breakdown.values()) == pytest.approx(521.0)
        assert engine.mean_latency_seconds() == pytest.approx(0.521)

    def test_each_engine_numbers_its_vms_from_one(self, sim, engine, host, snapshot):
        # One engine per farm: a farm's VM ids (and so its MACs) do not
        # depend on what else ran in the process.
        vms = [engine.clone(host, snapshot, IPAddress(IP + i)) for i in range(3)]
        assert [vm.vm_id for vm in vms] == [1, 2, 3]
        assert [vm.vif.mac for vm in vms] == [
            "02:70:6b:00:00:01", "02:70:6b:00:00:02", "02:70:6b:00:00:03",
        ]
        other_host = PhysicalHost(1)
        other_snapshot = ReferenceSnapshot(other_host.memory, image_bytes=16 << 20)
        other_host.install_snapshot(other_snapshot)
        other = FlashCloneEngine(sim, CloneCostModel(jitter=0.0))
        assert other.clone(other_host, other_snapshot, IP).vm_id == 1

    def test_vm_slot_exhaustion_raises_synchronously(self, sim, engine):
        tiny = PhysicalHost(1, memory_bytes=1 << 30, max_vms=1)
        snap = ReferenceSnapshot(tiny.memory, image_bytes=16 << 20)
        tiny.install_snapshot(snap)
        engine.clone(tiny, snap, IP)
        with pytest.raises(HostCapacityError):
            engine.clone(tiny, snap, IPAddress(IP + 1))

    def test_clone_destroyed_mid_pipeline_is_aborted(self, sim, engine, host, snapshot):
        results = []
        vm = engine.clone(host, snapshot, IP, on_ready=results.append)
        sim.schedule(0.1, vm.destroy, 0.1)
        sim.run()
        assert vm.state is VMState.DESTROYED
        assert results == []
        assert engine.metrics.counter("clone.aborted").value == 1

    def test_invalid_mode_rejected(self, sim):
        with pytest.raises(ValueError):
            FlashCloneEngine(sim, CloneCostModel(jitter=0.0), mode="warp")


class TestFullCopyMode:
    @pytest.fixture
    def engine(self, sim):
        return FlashCloneEngine(sim, CloneCostModel(jitter=0.0), mode="full-copy")

    def test_memory_charged_eagerly(self, sim, engine, host, snapshot):
        before = host.memory.allocated_frames
        vm = engine.clone(host, snapshot, IP)
        assert host.memory.allocated_frames == before + snapshot.page_count
        assert vm.private_pages == snapshot.page_count

    def test_latency_includes_copy_stage(self, sim, engine, host, snapshot):
        results = []
        engine.clone(host, snapshot, IP, on_ready=results.append)
        sim.run()
        stages = results[0].stage_seconds()
        assert "memory_full_copy" in stages
        assert "memory_cow_setup" not in stages
        assert results[0].total_seconds > 0.521

    def test_oom_raises_synchronously(self, sim, engine):
        small = PhysicalHost(1, memory_bytes=200 << 20, max_vms=64)
        snap = ReferenceSnapshot(small.memory, image_bytes=128 << 20)
        small.install_snapshot(snap)
        with pytest.raises(OutOfMemoryError):
            engine.clone(small, snap, IP)
        assert small.live_vms == 0
        assert snap.active_clones == 0  # rollback left no dangling sharer


class TestBootMode:
    @pytest.fixture
    def engine(self, sim):
        return FlashCloneEngine(sim, CloneCostModel(jitter=0.0), mode="boot")

    def test_boot_latency_dominates(self, sim, engine, host, snapshot):
        vm = engine.clone(host, snapshot, IP)
        sim.run(until=10.0)
        assert vm.state is VMState.CLONING  # still booting at 10s
        sim.run()
        assert vm.state is VMState.RUNNING
        assert sim.now > 40.0

    def test_boot_mode_charges_full_memory(self, sim, engine, host, snapshot):
        vm = engine.clone(host, snapshot, IP)
        assert vm.private_pages == snapshot.page_count
