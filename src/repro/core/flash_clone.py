"""Flash cloning: on-demand VM instantiation from a live snapshot.

The latency half of the paper's scalability argument. Instead of booting
a guest OS when a packet arrives for an unused address (tens of seconds —
the scanner is long gone), the engine *forks* a pre-booted reference
snapshot: create an empty domain, overlay the snapshot's memory
copy-on-write (delta virtualization makes this O(1) in pages), attach CoW
disk and a fresh virtual NIC, and rewrite the clone's network identity to
the target address. Each stage charges simulated time from the
:class:`~repro.vmm.latency.CloneCostModel`, reproducing the paper's
~0.5 s end-to-end clone latency and its stage breakdown (Table T1).

The engine is asynchronous: :meth:`FlashCloneEngine.clone` returns the VM
immediately in ``CLONING`` state and invokes a completion callback when
the pipeline finishes, which is when the gateway flushes the packets it
queued for the address.

The engine keeps aggregates, not results: a completed count and the
``clone.*`` histograms, whose running moments are the T1 means. A
:class:`CloneResult` (and through it the VM) is referenced by the
pending completion event and then by nobody, so what the engine holds
does not grow with the number of VMs it has ever cloned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.addr import IPAddress
from repro.obs import recorder as _obs
from repro.sim.engine import Simulator
from repro.sim.metrics import Histogram, MetricRegistry
from repro.vmm.host import HostCapacityError, PhysicalHost
from repro.vmm.latency import CloneCostModel, StageCost
from repro.vmm.memory import GuestAddressSpace, OutOfMemoryError
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine

__all__ = ["CloneResult", "FlashCloneEngine"]


@dataclass
class CloneResult:
    """Outcome of one clone operation, handed to its ``on_ready`` callback
    and kept by no one: the engine holds aggregates, not results.

    ``failed`` marks a clone the fault-injection hook killed at the end
    of its pipeline: the VM never reached RUNNING and the orchestrator
    must tear it down. Failures surface through this flag (with
    ``failure_reason``) rather than an exception, because by the time
    the pipeline completes the original caller is long gone — only the
    ``on_ready`` callback can react.
    """

    vm: VirtualMachine
    requested_at: float
    completed_at: float
    stages: List[StageCost] = field(default_factory=list)
    failed: bool = False
    failure_reason: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        return self.completed_at - self.requested_at

    def stage_seconds(self) -> Dict[str, float]:
        return {s.stage: s.seconds for s in self.stages}


class FlashCloneEngine:
    """Clones VMs from reference snapshots on a given host.

    Parameters
    ----------
    sim:
        The event clock stages are charged against.
    cost_model:
        Stage latency model (see :mod:`repro.vmm.latency`).
    metrics:
        Registry receiving ``clone.*`` histograms and counters.
    mode:
        ``flash`` — delta virtualization, the system under test;
        ``full-copy`` — the eager-copy ablation (A-ABL1): memory is
        copied instead of CoW-shared, charging both the copy latency and
        the full physical footprint;
        ``boot`` — the dedicated-honeypot baseline: a cold guest boot
        plus a private image (what a conventional honeyfarm pays per
        address).
    """

    MODES = ("flash", "full-copy", "boot")

    def __init__(
        self,
        sim: Simulator,
        cost_model: CloneCostModel,
        metrics: Optional[MetricRegistry] = None,
        mode: str = "flash",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown clone mode {mode!r}; expected one of {self.MODES}")
        self.sim = sim
        self.cost_model = cost_model
        self.metrics = metrics or MetricRegistry()
        self.mode = mode
        self.in_flight = 0
        # Aggregates only (module docstring). Histogram handles are
        # resolved on first use and kept, so a run that completes no
        # clone has no ``clone.*`` histogram.
        self._c_completed = self.metrics.handle("clone.completed")
        self._latency: Optional[Histogram] = None
        self._stage_histograms: Dict[str, Histogram] = {}
        # Chaos hook (see repro.faults.injectors.CloneFaultInjector):
        # called once per completing clone; a non-None return is a
        # failure reason and the clone fails instead of starting. None
        # (the default) keeps the pipeline fault-free at zero cost.
        self.fault_hook: Optional[Callable[[VirtualMachine], Optional[str]]] = None

    @property
    def eager_copy(self) -> bool:
        """Whether clones carry a private copy of the whole image."""
        return self.mode in ("full-copy", "boot")

    def clone(
        self,
        host: PhysicalHost,
        snapshot: ReferenceSnapshot,
        ip: IPAddress,
        on_ready: Optional[Callable[[CloneResult], None]] = None,
    ) -> VirtualMachine:
        """Begin cloning ``snapshot`` as a new VM impersonating ``ip``.

        Admission (VM slot + memory) is checked synchronously, so the
        caller can catch :class:`~repro.vmm.host.HostCapacityError` /
        :class:`~repro.vmm.memory.OutOfMemoryError` and reclaim or spill;
        the latency pipeline then plays out on the event clock and
        ``on_ready`` fires when the VM starts running.
        """
        if not host.has_vm_slot():
            raise HostCapacityError(f"{host.name} has no free VM slot")
        address_space = GuestAddressSpace(snapshot.image, eager_copy=self.eager_copy)
        vm = VirtualMachine(
            snapshot=snapshot,
            address_space=address_space,
            ip=ip,
            created_at=self.sim.now,
        )
        try:
            host.admit(vm)
        except HostCapacityError:
            address_space.destroy()
            raise
        snapshot.clones_created += 1
        self.in_flight += 1

        if self.mode == "full-copy":
            stages = self.cost_model.full_copy_stages(snapshot.image_bytes)
        elif self.mode == "boot":
            stages = self.cost_model.boot_stages()
        else:
            stages = self.cost_model.flash_clone_stages()
        result = CloneResult(vm=vm, requested_at=self.sim.now, completed_at=0.0, stages=stages)
        total = sum(s.seconds for s in stages)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "clone", "started",
                ip=str(ip), vm_id=vm.vm_id, host=host.name, mode=self.mode,
                eta_seconds=total,
            )
        self.sim.schedule(total, self._complete, result, on_ready)
        return vm

    def _complete(
        self, result: CloneResult, on_ready: Optional[Callable[[CloneResult], None]]
    ) -> None:
        self.in_flight -= 1
        result.completed_at = self.sim.now
        vm = result.vm
        if not vm.is_live:
            # Reclaimed mid-clone (memory pressure, or its host crashed).
            self.metrics.counter("clone.aborted").increment()
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.emit(
                    self.sim.now, "clone", "aborted",
                    ip=str(vm.ip), vm_id=vm.vm_id,
                )
            return
        if self.fault_hook is not None:
            reason = self.fault_hook(vm)
            if reason is not None:
                result.failed = True
                result.failure_reason = reason
                self.metrics.counter("clone.failed").increment()
                if _obs.ACTIVE is not None:
                    _obs.ACTIVE.emit(
                        self.sim.now, "clone", "failed",
                        ip=str(vm.ip), vm_id=vm.vm_id, reason=reason,
                    )
                if on_ready is not None:
                    on_ready(result)
                return
        vm.start(self.sim.now)
        self._c_completed.increment()
        if _obs.ACTIVE is not None:
            memory = vm.address_space.memory
            _obs.ACTIVE.emit(
                self.sim.now, "clone", "completed",
                ip=str(vm.ip), vm_id=vm.vm_id, seconds=result.total_seconds,
                host_shared_frames=memory.shared_frames,
                host_sharing_savings=memory.sharing_savings_frames,
            )
        latency = self._latency
        if latency is None:
            latency = self._latency = self.metrics.histogram("clone.latency_seconds")
        latency.observe(result.total_seconds)
        histograms = self._stage_histograms
        for stage in result.stages:
            histogram = histograms.get(stage.stage)
            if histogram is None:
                histogram = histograms[stage.stage] = self.metrics.histogram(
                    f"clone.stage.{stage.stage}"
                )
            histogram.observe(stage.seconds)
        if on_ready is not None:
            on_ready(result)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def completed(self) -> int:
        """Clones that reached RUNNING (failed and aborted ones are the
        ``clone.failed`` / ``clone.aborted`` counters)."""
        return self._c_completed.value

    def stage_breakdown_ms(self) -> Dict[str, float]:
        """Mean per-stage latency in milliseconds over all completed
        clones — the rows of the Table T1 reproduction. O(stages)."""
        return {
            stage: 1000.0 * histogram.total / histogram.count
            for stage, histogram in self._stage_histograms.items()
        }

    def mean_latency_seconds(self) -> float:
        return 0.0 if self._latency is None else self._latency.mean

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlashCloneEngine {self.mode} completed={self.completed}>"
