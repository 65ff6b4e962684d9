"""The honeyfarm orchestrator: gateway + servers + guests + policies.

:class:`Honeyfarm` assembles a runnable farm from a
:class:`~repro.core.config.HoneyfarmConfig`:

* builds the physical hosts and installs one reference snapshot per
  personality on each;
* builds the gateway with the configured containment policy and the
  internal DNS resolver;
* implements the gateway's backend protocol — flash-cloning VMs on
  demand (with spill-over across hosts and emergency reclamation under
  pressure) and delivering packets to guests;
* runs the reclamation daemon;
* collects every infection record and the time series the experiments
  plot (live VMs, clone demand, memory residency).

The public surface a workload needs is tiny: :meth:`inject` a packet (or
wire border routers to the gateway), :meth:`register_worm` so guests know
how captured worms propagate, and :meth:`run`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import HoneyfarmConfig
from repro.core.containment import make_policy
from repro.core.delta import MemoryBreakdown, farm_memory_breakdown
from repro.core.flash_clone import CloneResult, FlashCloneEngine
from repro.core.gateway import Gateway
from repro.core.placement import make_placement
from repro.core.reclamation import (
    CompositeReclamation,
    IdleTimeoutPolicy,
    MemoryPressurePolicy,
    ReclamationPlan,
)
from repro.faults.backoff import backoff_delay
from repro.fidelity.ladder import FidelityLadder
from repro.net.addr import AddressSpaceInventory, IPAddress
from repro.net.packet import Packet
from repro.obs import recorder as _obs
from repro.services.dns import DnsServer
from repro.services.guest import GuestHost, InfectionRecord, ScanBehavior
from repro.services.personality import PersonalityRegistry, default_registry
from repro.sim.batch import PacketArrivalStream, PacketColumns
from repro.sim.engine import Simulator
from repro.sim.metrics import Histogram, MetricRegistry
from repro.sim.rand import SeedSequence
from repro.vmm.host import HostCapacityError, PhysicalHost
from repro.vmm.latency import CloneCostModel
from repro.vmm.memory import OutOfMemoryError
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine, VMState

__all__ = ["Honeyfarm"]

#: How often the background daemon tops the warm pool back up (seconds).
WARM_POOL_REFILL_INTERVAL = 0.25
#: Re-spawning the addresses a crashed host was serving onto survivors:
#: capped exponential backoff with seeded jitter, abandoned after this
#: many failed attempts.
RESPAWN_BACKOFF_BASE = 0.5
RESPAWN_BACKOFF_CAP = 8.0
RESPAWN_BACKOFF_JITTER = 0.2
RESPAWN_MAX_ATTEMPTS = 6


class Honeyfarm:
    """A complete, runnable honeyfarm. See module docstring."""

    def __init__(
        self,
        config: Optional[HoneyfarmConfig] = None,
        personalities: Optional[PersonalityRegistry] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.config = config or HoneyfarmConfig()
        self.personalities = personalities or default_registry()
        self.sim = sim or Simulator()
        self.seeds = SeedSequence(self.config.seed)
        self.metrics = MetricRegistry()
        self.infections: List[InfectionRecord] = []
        self.infection_listeners: List[Callable[[InfectionRecord], None]] = []
        self.detained: List[VirtualMachine] = []
        self.worm_behaviors: Dict[str, ScanBehavior] = {}

        self.inventory = AddressSpaceInventory(self.config.parsed_prefixes())
        self.dns_server = DnsServer(self.config.dns_address())

        self._cost_model = CloneCostModel(
            jitter=self.config.clone_jitter,
            rng=self.seeds.stream("clone-jitter") if self.config.clone_jitter > 0 else None,
        )
        self.clone_engine = FlashCloneEngine(
            self.sim,
            self._cost_model,
            metrics=self.metrics,
            mode=self.config.clone_mode,
        )

        self.hosts: List[PhysicalHost] = []
        needed = self._needed_personalities()
        for i in range(self.config.num_hosts):
            # Farm-local host ids: two identically-seeded farms in one
            # process must build identical clusters (placement tie-breaks
            # on host_id).
            host = PhysicalHost(
                memory_bytes=self.config.host_memory_bytes,
                max_vms=self.config.max_vms_per_host,
                name=f"host-{i}",
                host_id=i,
                content_sharing=self.config.content_sharing,
            )
            for personality in needed:
                host.install_snapshot(
                    ReferenceSnapshot(
                        host.memory,
                        personality=personality,
                        image_bytes=self.config.vm_image_bytes,
                        name=f"{host.name}-{personality}",
                    )
                )
            self.hosts.append(host)
        self._hosts_by_id: Dict[int, PhysicalHost] = {
            host.host_id: host for host in self.hosts
        }

        policy = make_policy(
            self.config.containment, self.inventory, self.config.outbound_rate_limit
        )
        self.gateway = Gateway(
            sim=self.sim,
            inventory=self.inventory,
            policy=policy,
            backend=self,
            flow_idle_timeout=self.config.flow_idle_timeout_seconds,
            dns_server=self.dns_server,
            metrics=self.metrics,
            pending_timeout=self.config.pending_timeout_seconds,
        )

        # Fidelity ladder (emulator tier + promotion engine). Constructed
        # only when ``config.ladder`` is set, so the default farm is
        # byte-identical to a clone-always farm.
        if self.config.ladder:
            self.ladder: Optional[FidelityLadder] = FidelityLadder(
                sim=self.sim,
                config=self.config,
                registry=self.personalities,
                inventory=self.inventory,
                metrics=self.metrics,
                session_idle_timeout=self.config.flow_idle_timeout_seconds,
            )
            self.gateway.ladder = self.ladder
        else:
            self.ladder = None

        # Deception reply-timing jitter (anti-fingerprinting): attached
        # the same way the ladder is, so the default farm keeps the
        # zero-cost synchronous egress path. Personality randomization
        # needs no attachment — it lives in the config's per-address
        # personality resolution, which every tier already consults.
        if (
            self.config.deception.enabled
            and self.config.deception.jitter_max_seconds > 0.0
        ):
            self.gateway.reply_jitter = self.config.reply_jitter

        idle_policy = IdleTimeoutPolicy(
            self.config.idle_timeout_seconds,
            detain_infected=self.config.detain_infected,
            max_detained=self.config.max_detained,
        )
        policies = [idle_policy]
        if self.config.memory_pressure_threshold is not None:
            policies.append(
                MemoryPressurePolicy(
                    self.config.memory_pressure_threshold,
                    detain_infected=self.config.detain_infected,
                    max_detained=self.config.max_detained,
                )
            )
        self.reclamation = CompositeReclamation(policies)
        self.placement = make_placement(self.config.placement_policy)
        self._guest_seeds = self.seeds.spawn("guests")
        self._guest_counter = 0
        self._sweep_started = False
        # Warm pool: pristine pre-created VMs parked on reserved addresses
        # (0.0.1.0 upward — never routable, never in the inventory),
        # waiting to be bound to a real address.
        self._pool: List[VirtualMachine] = []
        self._pool_parking_counter = 0
        self._pool_started = False
        self._live_gauge = self.metrics.gauge("farm.live_vms", time=self.sim.now)
        # Hot-path metric handles, resolved once (see docs/PERFORMANCE.md).
        self._c_vms_spawned = self.metrics.handle("farm.vms_spawned")
        self._c_deliver_to_dead_vm = self.metrics.handle("farm.deliver_to_dead_vm")
        self._c_infections = self.metrics.handle("farm.infections")
        self._c_vms_reclaimed = self.metrics.handle("farm.vms_reclaimed")
        self._c_clone_failures = self.metrics.handle("farm.clone_failures")
        self._c_sweep_reclaims = self.metrics.handle("farm.sweep_reclaims")
        # Resolved at the first ready address: a run that serves none
        # has no such histogram.
        self._address_ready: Optional[Histogram] = None
        self._live_series = self.metrics.series("farm.live_vms_series")
        self._infections_series = self.metrics.series("farm.infections_series")
        # Sharing series exist only when the mechanism is on, so a
        # sharing-off (ablation) report carries no dead rows.
        self._sharing_series = (
            (
                self.metrics.series("farm.shared_frames_series"),
                self.metrics.series("farm.sharing_savings_series"),
            )
            if self.config.content_sharing
            else None
        )
        # Respawn backoff jitter draws from its own stream so chaos
        # recovery cannot perturb workload randomness (and vice versa).
        self._respawn_rng = self.seeds.stream("respawn-backoff")

    def _needed_personalities(self) -> List[str]:
        names = self.config.all_personalities()
        for name in names:
            if name not in self.personalities:
                raise ValueError(f"config references unknown personality {name!r}")
        return sorted(names)

    # ------------------------------------------------------------------ #
    # Workload-facing API
    # ------------------------------------------------------------------ #

    def inject(self, packet: Packet) -> None:
        """Feed one packet into the gateway, as if it arrived by tunnel."""
        self.gateway.process_inbound(packet)

    def inject_batch(
        self, packets: List[Packet], start: int, end: int, now: float
    ) -> None:
        # No caller under src/: kept only because benchmarks/e2e/layers.py
        # resolves the name when it installs its traced-pass wrappers.
        for k in range(start, end):
            self.inject(packets[k])

    def attach_arrival_columns(
        self, trace: PacketColumns, time_offset: float = 0.0
    ) -> PacketArrivalStream:
        """Stream a time-sorted columnar trace into this farm's run
        loop, ``time_offset`` later than its timestamps say.

        The batched equivalent of scheduling one injection event per
        packet: firing order (and therefore every verdict, counter, and
        trace event) is bit-identical, but arrivals never touch the event
        heap. Packets are materialized only when they leave the gateway's
        span lane (:meth:`~repro.core.gateway.Gateway.dispatch_span`),
        which is offered only when the farm has a ladder — without one it
        declines every arrival. The farm takes its own
        :meth:`~repro.sim.batch.PacketColumns.attachment` of the trace,
        so nothing is copied and the trace can feed other farms too. See
        ``docs/PERFORMANCE.md``.
        """
        stream = PacketArrivalStream(
            self.sim,
            trace.attachment(time_offset),
            self.inject,
            self.gateway.dispatch_span if self.ladder is not None else None,
        )
        self.sim.attach_stream(stream)
        return stream

    def register_worm(self, behavior: ScanBehavior) -> None:
        """Teach guests how a worm propagates once it compromises them."""
        self.worm_behaviors[behavior.exploit_tag] = behavior

    def attach_packet_tap(self, tap: Callable[[Packet], None]) -> None:
        """Mirror every inbound packet to ``tap`` (e.g. a
        :class:`~repro.detection.sifting.ContentSifter`)."""
        self.gateway.packet_tap = tap

    def add_infection_listener(self, listener: Callable[[InfectionRecord], None]) -> None:
        """Call ``listener`` on every confirmed infection (e.g. an
        :class:`~repro.detection.monitor.InfectionRateMonitor`)."""
        self.infection_listeners.append(listener)

    def run(self, until: float) -> None:
        """Run the farm (starting the reclamation daemon) to time ``until``."""
        self._ensure_sweeper()
        self.sim.run(until=until)

    def _ensure_sweeper(self) -> None:
        if not self._sweep_started:
            self._sweep_started = True
            self.sim.schedule(self.config.sweep_interval_seconds, self._sweep)
        if self.config.warm_pool_size > 0 and not self._pool_started:
            self._pool_started = True
            self.sim.call_now(self._refill_pool)

    # ------------------------------------------------------------------ #
    # Warm pool
    # ------------------------------------------------------------------ #

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def _parking_ip(self) -> IPAddress:
        self._pool_parking_counter += 1
        return IPAddress(0x00000100 + self._pool_parking_counter)

    def _top_up_pool(self) -> None:
        """Clone pool VMs up to the target size.

        Shared by the periodic refill daemon and the crash/repair paths
        (which call it directly rather than waiting for the next tick, and
        must not fork a second daemon chain).
        """
        deficit = self.config.warm_pool_size - len(self._pool)
        while deficit > 0:
            host = self._pick_host(self.config.default_personality)
            if host is None:
                break
            snapshot = host.snapshot_for(self.config.default_personality)
            try:
                vm = self.clone_engine.clone(
                    host, snapshot, self._parking_ip(), on_ready=self._pool_vm_ready
                )
            except (HostCapacityError, OutOfMemoryError):
                break
            vm.parked = True
            self._pool.append(vm)
            self.metrics.counter("farm.pool_clones").increment()
            deficit -= 1

    def _refill_pool(self) -> None:
        """Background daemon: keep the pool at its target size."""
        self._top_up_pool()
        self.sim.schedule(WARM_POOL_REFILL_INTERVAL, self._refill_pool)

    def _pool_vm_ready(self, result: CloneResult) -> None:
        """A pool VM finished its (full) clone pipeline: give it a guest
        so it is ready the instant an address is bound to it."""
        self._clone_ready(result)

    def _take_from_pool(self, ip: IPAddress, personality: str) -> Optional[VirtualMachine]:
        """Bind a ready pool VM to ``ip``; returns None when the pool has
        no running VM of the right personality."""
        for index, vm in enumerate(self._pool):
            if vm.state is VMState.RUNNING and vm.personality == personality:
                self._pool.pop(index)
                vm.parked = False
                vm.begin_reassignment(ip, self.sim.now)
                stages = self._cost_model.reassign_stages()
                total = sum(s.seconds for s in stages)
                self.metrics.counter("farm.pool_hits").increment()
                self.metrics.histogram("clone.pool_assign_seconds").observe(total)
                self.sim.schedule(total, self._pool_assignment_done, vm, self.sim.now)
                return vm
        return None

    def _pool_assignment_done(self, vm: VirtualMachine, requested_at: float) -> None:
        if not vm.is_live:
            self.metrics.counter("clone.aborted").increment()
            return
        vm.start(self.sim.now)
        self._note_address_ready(self.sim.now - requested_at)
        self.gateway.vm_ready(vm)

    # ------------------------------------------------------------------ #
    # Backend protocol (called by the gateway)
    # ------------------------------------------------------------------ #

    def spawn_vm(self, ip: IPAddress) -> Optional[VirtualMachine]:
        prefix = self.inventory.lookup(ip)
        if prefix is None:
            return None
        personality = self.config.personality_for_address(prefix, ip)
        if self.config.warm_pool_size > 0:
            pooled = self._take_from_pool(ip, personality)
            if pooled is not None:
                self._live_gauge.adjust(1, self.sim.now)
                self._live_series.record(self.sim.now, self._live_gauge.value)
                self._c_vms_spawned.increment()
                if _obs.ACTIVE is not None:
                    _obs.ACTIVE.emit(
                        self.sim.now, "farm", "vm_spawned",
                        ip=str(ip), vm_id=pooled.vm_id, host_id=pooled.host_id,
                        pooled=True,
                    )
                return pooled
            self.metrics.counter("farm.pool_misses").increment()
        host = self._pick_host(personality)
        if host is None:
            # Try once more after forcing reclamation across the cluster.
            if self._emergency_reclaim():
                host = self._pick_host(personality)
        if host is None:
            self._note_clone_failure("no_host_capacity")
            return None
        snapshot = host.snapshot_for(personality)
        try:
            vm = self.clone_engine.clone(host, snapshot, ip, on_ready=self._clone_ready)
        except HostCapacityError:
            self._note_clone_failure("host_capacity")
            return None
        except OutOfMemoryError:
            self._note_clone_failure("out_of_memory")
            return None
        self._live_gauge.adjust(1, self.sim.now)
        self._live_series.record(self.sim.now, self._live_gauge.value)
        self._c_vms_spawned.increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "farm", "vm_spawned",
                ip=str(ip), vm_id=vm.vm_id, host_id=vm.host_id, pooled=False,
            )
        return vm

    def deliver(self, vm: VirtualMachine, packet: Packet) -> None:
        guest: Optional[GuestHost] = vm.guest
        if guest is None or vm.state is not VMState.RUNNING:
            self._c_deliver_to_dead_vm.increment()
            return
        self._propagate_generation(guest, packet)
        replies = guest.handle_packet(packet, self.sim.now)
        for reply in replies:
            self.gateway.emit_from_vm(vm, reply)

    def deliver_replay(self, vm: VirtualMachine, packet: Packet) -> None:
        """Handoff replay: rebuild guest state, discard the replies.

        The emulator tier already answered these packets byte-identically
        (the parity the equivalence oracle proves), so re-emitting the
        guest's replies would send the attacker duplicates. The guest
        still sees every packet — connection state, infection checks, and
        memory dirtying all happen exactly as on the live path.
        """
        guest: Optional[GuestHost] = vm.guest
        if guest is None or vm.state is not VMState.RUNNING:
            self.metrics.counter("farm.replay_to_dead_vm").increment()
            return
        self._propagate_generation(guest, packet)
        guest.handle_packet(packet, self.sim.now)

    def _propagate_generation(self, guest: GuestHost, packet: Packet) -> None:
        """If the packet comes from another (infected) farm VM, stamp the
        receiving guest with the next epidemic generation, so infection
        records chain multi-stage spread. Sources owned by sibling
        federation shards are not in the local VM map; their generation
        travels on the inter-shard message and is looked up from the
        gateway's per-source record instead."""
        source_vm = self.gateway.vm_map.get(packet.src)
        if source_vm is None or source_vm.guest is None:
            remote = self.gateway.remote_generations.get(packet.src)
            if remote is not None:
                guest.generation = remote + 1
            return
        source_guest: GuestHost = source_vm.guest
        if source_guest.infection is not None:
            guest.generation = source_guest.infection.generation + 1

    # ------------------------------------------------------------------ #
    # Clone completion
    # ------------------------------------------------------------------ #

    def _clone_ready(self, result: CloneResult) -> None:
        if result.failed:
            self._clone_fault(result)
            return
        vm = result.vm
        if not vm.parked:
            # Address-serving clones (not pool refills) count toward the
            # farm's first-packet-to-ready latency.
            self._note_address_ready(result.total_seconds)
        host = self._host_by_id(vm.host_id)
        personality = self.personalities.get(vm.personality)
        # Seed by farm-local creation index, not the process-global VM id:
        # two identically-seeded farms in one process must behave alike.
        self._guest_counter += 1
        GuestHost(
            vm=vm,
            personality=personality,
            catalog=self.personalities.catalog,
            sim=self.sim,
            rng=self._guest_seeds.stream(f"guest-{self._guest_counter}"),
            transmit=self.gateway.emit_from_vm,
            worm_behaviors=self.worm_behaviors,
            on_oom=(lambda h=host, v=vm: self._relieve_pressure(h, exclude_vm_id=v.vm_id)),
            on_infection=self._record_infection,
        )
        self.gateway.vm_ready(vm)

    def _note_address_ready(self, seconds: float) -> None:
        histogram = self._address_ready
        if histogram is None:
            histogram = self._address_ready = self.metrics.histogram(
                "farm.address_ready_seconds"
            )
        histogram.observe(seconds)

    def _note_clone_failure(self, reason: str) -> None:
        """Account a failed or refused clone under a reason label."""
        self._c_clone_failures.increment()
        self.metrics.counter(f"farm.clone_failures.{reason}").increment()

    def _clone_fault(self, result: CloneResult) -> None:
        """A clone pipeline completed *failed* (fault injection): unwind
        the half-built VM and, for an address-serving clone, schedule a
        respawn so the address heals."""
        vm = result.vm
        self._note_clone_failure(result.failure_reason or "fault")
        host = self._hosts_by_id.get(vm.host_id)
        if host is not None and host.get_vm(vm.vm_id) is not None:
            host.evict(vm, self.sim.now)
        if vm.parked:
            # A pool refill died; the refill daemon will top back up.
            if vm in self._pool:
                self._pool.remove(vm)
        else:
            self.gateway.vm_retired(vm, pending_cause="clone_failed")
            self._live_gauge.adjust(-1, self.sim.now)
            self._live_series.record(self.sim.now, self._live_gauge.value)
            self._schedule_respawn(vm.ip)

    def _record_infection(self, record: InfectionRecord) -> None:
        self.infections.append(record)
        self._c_infections.increment()
        self._infections_series.record(self.sim.now, len(self.infections))
        for listener in self.infection_listeners:
            listener(record)

    # ------------------------------------------------------------------ #
    # Placement and reclamation
    # ------------------------------------------------------------------ #

    def _host_by_id(self, host_id: Optional[int]) -> PhysicalHost:
        try:
            return self._hosts_by_id[host_id]
        except KeyError:
            raise KeyError(f"no host with id {host_id}") from None

    def _pick_host(self, personality: str) -> Optional[PhysicalHost]:
        """Delegate to the configured placement policy."""
        return self.placement.select(self.hosts, personality)

    def _emergency_reclaim(self) -> bool:
        """Forced reclamation when admission fails: evict, cluster-wide,
        any VM idle for at least one sweep interval."""
        reclaimed = 0
        for host in self.hosts:
            for vm in host.idle_vms(self.sim.now, self.config.sweep_interval_seconds):
                self._retire(host, vm)
                reclaimed += 1
        self.metrics.counter("farm.emergency_reclaims").increment(reclaimed)
        return reclaimed > 0

    def _relieve_pressure(self, host: PhysicalHost, exclude_vm_id: int) -> bool:
        """OOM handler for guest page writes: evict the least-recently-
        active other VM on the same host. Returns True only when physical
        frames were actually freed — a victim whose pages are all shared
        with other VMs frees nothing, so evicting it cannot unblock the
        faulting write."""
        victim = min(
            (
                vm
                for vm in host.vms()
                if vm.state is VMState.RUNNING
                and not vm.parked
                and vm.vm_id != exclude_vm_id
                and vm.reclaimable_frames > 0
            ),
            key=lambda vm: (vm.last_activity, vm.vm_id),
            default=None,
        )
        if victim is None:
            return False
        self._retire(host, victim)
        self.metrics.counter("farm.pressure_evictions").increment()
        return True

    def _retire(self, host: PhysicalHost, vm: VirtualMachine) -> None:
        guest: Optional[GuestHost] = vm.guest
        if guest is not None:
            guest.stop()
        self.gateway.vm_retired(vm)
        host.evict(vm, self.sim.now)
        self._c_vms_reclaimed.increment()
        self._live_gauge.adjust(-1, self.sim.now)
        self._live_series.record(self.sim.now, self._live_gauge.value)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "farm", "vm_retired",
                ip=str(vm.ip), vm_id=vm.vm_id, host=host.name,
            )

    def _detain(self, host: PhysicalHost, vm: VirtualMachine) -> None:
        guest: Optional[GuestHost] = vm.guest
        if guest is not None:
            guest.stop()
        vm.pause(self.sim.now)
        vm.detained = True
        self.gateway.vm_retired(vm)
        self.detained.append(vm)
        self.metrics.counter("farm.vms_detained").increment()
        # Detained VMs stay resident (their memory is the evidence), but
        # no longer serve an address, so the live gauge drops.
        self._live_gauge.adjust(-1, self.sim.now)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "farm", "vm_detained",
                ip=str(vm.ip), vm_id=vm.vm_id, host=host.name,
            )

    def _sweep(self) -> None:
        destroyed = detained = 0
        for host in self.hosts:
            plan: ReclamationPlan = self.reclamation.plan(host, self.sim.now)
            for vm in plan.destroy:
                self._retire(host, vm)
            self._c_sweep_reclaims.increment(len(plan.destroy))
            for vm in plan.detain:
                self._detain(host, vm)
            destroyed += len(plan.destroy)
            detained += len(plan.detain)
        flows_expired = self.gateway.sweep_flows()
        breakdown = farm_memory_breakdown(self.hosts)
        self.metrics.series("farm.private_bytes_series").record(
            self.sim.now, breakdown.private_resident
        )
        shared = savings = 0
        for host in self.hosts:
            host.memory.check_frame_invariant()
            shared += host.memory.shared_frames
            savings += host.memory.sharing_savings_frames
        if self._sharing_series is not None:
            shared_series, savings_series = self._sharing_series
            shared_series.record(self.sim.now, shared)
            savings_series.record(self.sim.now, savings)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "reclamation", "sweep",
                destroyed=destroyed, detained=detained,
                flows_expired=flows_expired, live_vms=self.live_vms,
                shared_frames=shared, sharing_savings=savings,
            )
        self.sim.schedule(self.config.sweep_interval_seconds, self._sweep)

    # ------------------------------------------------------------------ #
    # Host crash, repair, and respawn (chaos self-healing)
    # ------------------------------------------------------------------ #

    def crash_host(self, host: PhysicalHost) -> Dict[str, int]:
        """Crash ``host`` now and run the farm's self-healing reaction.

        Every resident VM is destroyed; the gateway state bound to each
        (address map, pending queues — dropped under the ``host_down``
        cause — flows, NAT entries) is unwound; the addresses the host
        was serving are re-spawned on surviving hosts under capped
        exponential backoff; and the warm pool tops back up on the
        survivors. Admission skips the host (``has_vm_slot`` is False
        while down) until :meth:`repair_host`.

        Returns an impact summary for the fault record.
        """
        if host.failed:
            raise ValueError(f"{host.name} is already down")
        now = self.sim.now
        pending_before = self.gateway.pending_dropped_total()
        vms_lost = 0
        clones_aborted = 0
        pool_lost = 0
        respawn_ips: List[IPAddress] = []
        for vm in host.vms():
            if vm.parked:
                pool_lost += 1
                if vm in self._pool:
                    self._pool.remove(vm)
            elif vm.detained:
                # The forensic evidence went down with the host.
                if vm in self.detained:
                    self.detained.remove(vm)
                self.metrics.counter("farm.detained_lost").increment()
            else:
                guest: Optional[GuestHost] = vm.guest
                if guest is not None:
                    guest.stop()
                if vm.state is VMState.CLONING:
                    clones_aborted += 1
                    self._note_clone_failure("host_down")
                vms_lost += 1
                self.gateway.vm_retired(vm, pending_cause="host_down")
                self._live_gauge.adjust(-1, now)
                respawn_ips.append(vm.ip)
        self._live_series.record(now, self._live_gauge.value)
        host.fail(now)
        self.metrics.counter("farm.host_crashes").increment()
        for ip in respawn_ips:
            self._schedule_respawn(ip)
        if self.config.warm_pool_size > 0 and self._pool_started:
            self.sim.call_now(self._top_up_pool)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now, "farm", "host_crashed",
                host=host.name, vms_lost=vms_lost, pool_vms_lost=pool_lost,
                respawns_scheduled=len(respawn_ips),
            )
        return {
            "vms_lost": vms_lost,
            "clones_aborted": clones_aborted,
            "pool_vms_lost": pool_lost,
            "pending_dropped": self.gateway.pending_dropped_total() - pending_before,
            "respawns_scheduled": len(respawn_ips),
        }

    def repair_host(self, host: PhysicalHost) -> None:
        """Bring a crashed host back into admission rotation and let the
        warm pool spread back onto it."""
        host.repair()
        self.metrics.counter("farm.host_repairs").increment()
        if self.config.warm_pool_size > 0 and self._pool_started:
            self.sim.call_now(self._top_up_pool)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(self.sim.now, "farm", "host_repaired", host=host.name)

    def _schedule_respawn(self, ip: IPAddress, attempt: int = 0) -> None:
        delay = backoff_delay(
            attempt,
            RESPAWN_BACKOFF_BASE,
            RESPAWN_BACKOFF_CAP,
            RESPAWN_BACKOFF_JITTER,
            self._respawn_rng,
        )
        self.sim.schedule(delay, self._attempt_respawn, ip, attempt)

    def _attempt_respawn(self, ip: IPAddress, attempt: int) -> None:
        if self.gateway.vm_map.get(ip) is not None:
            # A fresh packet already re-spawned this address naturally.
            return
        vm = self.spawn_vm(ip)
        if vm is None:
            if attempt + 1 < RESPAWN_MAX_ATTEMPTS:
                self.metrics.counter("farm.respawn_retries").increment()
                self._schedule_respawn(ip, attempt + 1)
            else:
                self.metrics.counter("farm.respawns_abandoned").increment()
            return
        self.gateway.bind_vm(ip, vm)
        self.metrics.counter("farm.respawns").increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "farm", "respawned",
                ip=str(ip), vm_id=vm.vm_id, attempt=attempt,
            )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def live_vms(self) -> int:
        return sum(host.live_vms for host in self.hosts)

    def memory_breakdown(self) -> MemoryBreakdown:
        return farm_memory_breakdown(self.hosts)

    def infection_count(self) -> int:
        return len(self.infections)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Honeyfarm hosts={len(self.hosts)} live_vms={self.live_vms}"
            f" policy={self.config.containment!r} t={self.sim.now:.1f}s>"
        )
