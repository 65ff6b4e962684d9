"""The gateway router: the honeyfarm's single point of policy.

Every packet entering or leaving the farm crosses the gateway, which is
what makes the paper's architecture work: physical servers hold only
mechanisms (VMs), while the gateway holds all four roles:

1. **Tunnel termination** — decapsulate GRE traffic from border routers,
   re-encapsulate honeypot replies so they exit through the network that
   owns the impersonated address.
2. **Dispatch** — map each destination address to a live VM; if none
   exists, ask the backend to flash-clone one and queue packets for the
   address until the clone is running (cloning takes ~0.5 s, and the
   first packet must not be lost — it is usually the exploit).
3. **Containment** — classify each honeypot-emitted packet as a *reply*
   on an externally-initiated flow (always allowed: answering scanners is
   the farm's purpose) or *honeypot-initiated* (subject to the configured
   :class:`~repro.core.containment.ContainmentPolicy`), and carry out the
   verdict, including reflection NAT bookkeeping.
4. **Resource directives** — notify interested parties as VMs come and
   go, and keep the flow table consistent with reclamation.

The backend (normally :class:`~repro.core.honeyfarm.Honeyfarm`) provides
``spawn_vm(ip)`` and ``deliver(vm, packet)``; the gateway provides
``vm_ready(vm)`` / ``vm_retired(vm)`` in return.

The per-packet decision path is deliberately allocation-free and O(1)-ish
(O(log prefixes) for membership): counters are pre-resolved handles,
inventory and tunnel ownership are binary searches over sorted ranges,
and the flow table maintains its own indexes — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.containment import (
    ContainmentAction,
    ContainmentPolicy,
    ReflectionNat,
    honeypot_initiated,
)
from repro.core.ledger import PENDING_DROP_CAUSES
from repro.fidelity.ladder import FidelityLadder
from repro.fidelity.span import SpanLane
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.flow import FlowRecord, FlowTable
from repro.net.gre import GrePacket, GreTunnel, decapsulate, encapsulate
from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs import recorder as _obs
from repro.services.dns import DnsServer
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import MetricRegistry
from repro.vmm.vm import VirtualMachine, VMState

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.batch import PacketColumns

__all__ = ["Gateway", "HoneyfarmBackend"]

#: Packets held per address while its VM clones; the next one is dropped.
MAX_PENDING_PER_IP = 256


class HoneyfarmBackend(Protocol):
    """What the gateway needs from the orchestrator behind it."""

    def spawn_vm(self, ip: IPAddress) -> Optional[VirtualMachine]:
        """Begin flash-cloning a VM for ``ip``; returns the VM (in
        CLONING state) or None if the farm is out of capacity."""

    def deliver(self, vm: VirtualMachine, packet: Packet) -> None:
        """Hand an inbound packet to a running VM's guest."""

    def deliver_replay(self, vm: VirtualMachine, packet: Packet) -> None:
        """Hand a handoff-replay packet to a running VM's guest with
        replies suppressed — the emulator tier already answered it."""


class _EmulatedSource:
    """Containment-policy stand-in for the emulator tier, where no VM
    exists. Policies consult only ``ip`` (reflection's never-self check)
    and ``vm_id`` (the rate limiter's bucket key); one bucket per
    emulated address matches the one-VM-per-address clone world."""

    __slots__ = ("ip", "vm_id")

    def __init__(self, ip: IPAddress) -> None:
        self.ip = ip
        self.vm_id = f"emulated:{ip}"


class Gateway:
    """See module docstring."""

    def __init__(
        self,
        sim: Simulator,
        inventory: AddressSpaceInventory,
        policy: ContainmentPolicy,
        backend: HoneyfarmBackend,
        flow_idle_timeout: float = 60.0,
        dns_server: Optional[DnsServer] = None,
        metrics: Optional[MetricRegistry] = None,
        external_sink: Optional[Callable[[Packet], None]] = None,
        pending_timeout: Optional[float] = None,
    ) -> None:
        if pending_timeout is not None and pending_timeout <= 0:
            raise ValueError(f"pending_timeout must be positive or None: {pending_timeout!r}")
        self.sim = sim
        self.inventory = inventory
        self.policy = policy
        self.backend = backend
        self.flows = FlowTable(idle_timeout=flow_idle_timeout)
        self.dns_server = dns_server
        self.metrics = metrics or MetricRegistry()
        self.external_sink = external_sink
        self.max_pending_per_ip = MAX_PENDING_PER_IP
        # Mirror of every inbound packet (``Honeyfarm.attach_packet_tap``).
        self.packet_tap: Optional[Callable[[Packet], None]] = None
        self.pending_timeout = pending_timeout
        # Fidelity ladder (attached by the farm when ``config.ladder`` is
        # set): consulted for cold addresses before a clone
        # is dispatched, and handed the replay when the clone is ready.
        self.ladder: Optional[FidelityLadder] = None
        # Deception reply-timing jitter (attached by the farm when the
        # deception config block is enabled): maps a honeypot source
        # address to its fixed egress delay. None keeps the zero-cost
        # synchronous egress path.
        self.reply_jitter: Optional[Callable[[IPAddress], float]] = None
        # Inter-shard port (attached by a federation ShardRunner when the
        # farm is one shard of many): duck-typed against ``is_remote``
        # and ``send``. None on standalone farms — every check below is
        # one attribute load and an identity test.
        self.intershard = None
        # Last-seen infection generation per remote source address,
        # recorded from inter-shard message metadata so infections caused
        # by cross-shard scans chain the epidemic depth correctly.
        self.remote_generations: Dict[IPAddress, int] = {}
        self.nat = ReflectionNat()
        self.vm_map: Dict[IPAddress, VirtualMachine] = {}
        # Packets held while a clone is in flight, each with the flow
        # record that already accounted it (observed exactly once).
        self._pending: Dict[IPAddress, List[Tuple[Packet, FlowRecord]]] = {}
        # Watchdog timers over pending queues (armed only when
        # ``pending_timeout`` is configured, so the default path never
        # schedules an extra event).
        self._pending_timers: Dict[IPAddress, Event] = {}
        self._tunnels: Dict[int, GreTunnel] = {}
        self._tunnel_links: Dict[int, Link] = {}
        self._tunnel_by_prefix: Dict[Prefix, int] = {}
        # Sorted, non-overlapping address ranges for O(log n) reply-tunnel
        # ownership on the egress path.
        self._tunnel_starts: List[int] = []
        self._tunnel_ends: List[int] = []
        self._tunnel_range_keys: List[int] = []

        # The span lane (see dispatch_span), built on first use and
        # rebuilt when what it was resolved under is replaced.
        self._span_lane: Optional[SpanLane] = None
        #: Span-lane flow resolves, and how many of them were for a key
        #: that already had a cache entry. Plain ints, not metrics
        #: counters: they describe the lane, not the simulated outcome.
        self.span_resolves = 0
        self.span_reresolves = 0

        # Counter handles, resolved once: per-packet increments are a
        # single attribute store, never a string-keyed registry lookup.
        handle = self.metrics.handle
        self._c_tunnel_in = handle("gateway.tunnel_in")
        self._c_packets_in = handle("gateway.packets_in")
        self._c_ttl_expired = handle("gateway.ttl_expired")
        self._c_stray = handle("gateway.stray")
        self._c_no_capacity = handle("gateway.no_capacity_drop")
        self._c_clones_requested = handle("gateway.clones_requested")
        self._c_queued_during_clone = handle("gateway.queued_during_clone")
        self._c_pending_overflow = handle("gateway.pending_overflow")
        self._c_vm_not_running = handle("gateway.dropped_vm_not_running")
        self._c_delivered = handle("gateway.delivered")
        self._c_vm_packets_out = handle("gateway.vm_packets_out")
        self._c_out_allowed = handle("gateway.outbound.allowed")
        self._c_out_dropped = handle("gateway.outbound.dropped")
        self._c_out_dns_redirected = handle("gateway.outbound.dns_redirected")
        self._c_out_reflected = handle("gateway.outbound.reflected")
        self._c_out_nat_rewritten = handle("gateway.outbound.nat_rewritten")
        self._c_reply_allowed = handle("gateway.outbound.reply_allowed")
        self._c_initiated_external = handle("gateway.initiated_external_out")
        self._c_reply_external = handle("gateway.reply_external_out")
        self._c_external_out = handle("gateway.external_out")
        # Cross-shard traffic through the federation's message layer:
        # counted on both sides of the boundary so the federation-level
        # conservation check (sum out == sum in + in flight) is exact.
        self._c_intershard_out = handle("gateway.intershard_out")
        self._c_intershard_in = handle("gateway.intershard_in")
        self._c_deception_delayed = handle("gateway.deception_delayed")
        self._c_dns_malformed = handle("gateway.dns_malformed")
        self._c_dns_answered = handle("gateway.dns_answered")
        # Fidelity-ladder buckets: packets fully served by the emulator
        # tier (a first-class ledger bucket alongside delivered/refused/
        # dropped) and the replies it sent on their behalf.
        self._c_emulated = handle("gateway.emulated")
        self._c_emulated_replies = handle("gateway.ladder_replies_out")
        self._c_emulated_contained = handle("gateway.ladder_replies_contained")
        # Pending-queue drops, keyed by cause, so packet totals reconcile
        # exactly even through host crashes and clone failures.
        self._c_pending_dropped = {
            cause: handle(f"gateway.pending_dropped_{cause}")
            for cause in PENDING_DROP_CAUSES
        }

    # ------------------------------------------------------------------ #
    # Tunnel configuration
    # ------------------------------------------------------------------ #

    def register_tunnel(
        self,
        tunnel: GreTunnel,
        prefixes: List[Prefix],
        return_link: Optional[Link] = None,
    ) -> None:
        """Associate a tunnel with the prefixes whose replies return
        through it; ``return_link`` carries encapsulated replies back to
        the border router (optional in pure-simulation setups).

        Tunnel prefixes must be in the farm inventory and must not overlap
        a prefix already bound to any tunnel — reply ownership has to be
        unambiguous for the egress path's range search to be exact.
        """
        if tunnel.key in self._tunnels:
            raise ValueError(f"tunnel key {tunnel.key} already registered")
        self._tunnels[tunnel.key] = tunnel
        if return_link is not None:
            self._tunnel_links[tunnel.key] = return_link
        for prefix in prefixes:
            if self.inventory.lookup(prefix.network) is None:
                raise ValueError(f"tunnel prefix {prefix} is not in the farm inventory")
            start = prefix.network.value
            end = start + prefix.size - 1
            i = bisect.bisect_left(self._tunnel_starts, start)
            if i > 0 and self._tunnel_ends[i - 1] >= start:
                raise ValueError(
                    f"tunnel prefix {prefix} overlaps an already-registered"
                    f" tunnel prefix"
                )
            if i < len(self._tunnel_starts) and self._tunnel_starts[i] <= end:
                raise ValueError(
                    f"tunnel prefix {prefix} overlaps an already-registered"
                    f" tunnel prefix"
                )
            self._tunnel_starts.insert(i, start)
            self._tunnel_ends.insert(i, end)
            self._tunnel_range_keys.insert(i, tunnel.key)
            self._tunnel_by_prefix[prefix] = tunnel.key

    def _tunnel_key_for(self, addr: IPAddress) -> Optional[int]:
        i = bisect.bisect_right(self._tunnel_starts, addr.value) - 1
        if i >= 0 and addr.value <= self._tunnel_ends[i]:
            return self._tunnel_range_keys[i]
        return None

    # ------------------------------------------------------------------ #
    # Inbound path (Internet -> farm, and reflected internal traffic)
    # ------------------------------------------------------------------ #

    def receive_tunnel(self, gre: GrePacket) -> None:
        """Entry point for GRE traffic from border routers."""
        self._c_tunnel_in.increment()
        self.process_inbound(decapsulate(gre))

    def process_inbound(self, packet: Packet) -> None:
        """Dispatch one packet addressed into the farm's dark space."""
        self._c_packets_in.increment()
        if self.packet_tap is not None:
            self.packet_tap(packet)
        if packet.ttl <= 0:
            self._c_ttl_expired.increment()
            if _obs.ACTIVE is not None:
                self._trace_dispatch("ttl_expired", packet)
            return
        if not self.inventory.covers(packet.dst):
            self._c_stray.increment()
            if _obs.ACTIVE is not None:
                self._trace_dispatch("stray", packet)
            return
        record, created = self.flows.observe(packet, self.sim.now)

        vm = self.vm_map.get(packet.dst)
        if vm is None and self.ladder is not None:
            # Cold address with the fidelity ladder attached: let the
            # emulator tier absorb the packet unless a trigger promotes
            # the flow — in which case fall through, and this packet
            # (never emulated) takes the normal clone-and-queue path.
            verdict = self.ladder.consider(packet, self.sim.now)
            if not verdict.promoted:
                self._c_emulated.increment()
                if _obs.ACTIVE is not None:
                    self._trace_dispatch("emulated", packet)
                for reply in verdict.replies:
                    self._emit_emulated_reply(reply)
                return
        self._dispatch_to_vm(packet, record, created, vm)

    def dispatch_batch(
        self, packets: List[Packet], start: int, end: int, now: float
    ) -> None:
        # No caller under src/: kept only because benchmarks/e2e/layers.py
        # resolves the name when it installs its traced-pass wrappers.
        for k in range(start, end):
            self.process_inbound(packets[k])

    def dispatch_span(self, columns: "PacketColumns", start: int, limit: int) -> int:
        """Consume the longest prefix of ``columns[start:limit]`` that is
        provably equivalent to per-event dispatch, without materializing
        packets, and return how many arrivals were consumed (0 when the
        lane is unavailable; the caller then dispatches per packet).

        The lane itself is :class:`repro.fidelity.span.SpanLane`, the
        emulator tier's bulk path. What stays here is what the gateway
        owns: the configurations that disqualify the lane outright, and
        the gateway's own counters."""
        ladder = self.ladder
        if (
            ladder is None
            or self.packet_tap is not None
            or self.external_sink is not None
            or self.reply_jitter is not None
            or self._tunnel_links
        ):
            # reply_jitter disqualifies the lane because jittered egress
            # schedules events, violating the span invariant (fidelity
            # over speed: deception-on runs use the exact lane).
            return 0
        lane = self._span_lane
        if lane is None or not lane.serves(ladder, self.policy):
            lane = self._span_lane = SpanLane(self, ladder)
        consumed, replies, contained = lane.run(columns, start, limit)
        if consumed:
            self._c_packets_in.increment(consumed)
            self._c_emulated.increment(consumed)
            if replies:
                self._c_emulated_replies.increment(replies)
            if contained:
                self._c_emulated_contained.increment(contained)
            external = replies - contained
            if external:
                self._c_reply_external.increment(external)
                self._c_external_out.increment(external)
        return consumed

    def _dispatch_to_vm(
        self,
        packet: Packet,
        record: FlowRecord,
        created: bool,
        vm: Optional[VirtualMachine],
    ) -> None:
        """The clone/queue/deliver tail of :meth:`process_inbound` (the
        packet has been flow-accounted and was not absorbed by the
        emulator tier)."""
        if vm is None:
            vm = self.backend.spawn_vm(packet.dst)
            if vm is None:
                self._c_no_capacity.increment()
                if _obs.ACTIVE is not None:
                    self._trace_dispatch("no_capacity", packet)
                return
            self._c_clones_requested.increment()
            self.bind_vm(packet.dst, vm)
            if vm.state is not VMState.RUNNING:
                # Normal case: the clone pipeline is in flight; hold the
                # packet until vm_ready flushes it.
                self._pending[packet.dst] = [(packet, record)]
                self._c_queued_during_clone.increment()
                if self.pending_timeout is not None:
                    self._arm_pending_timer(packet.dst, vm)
                if _obs.ACTIVE is not None:
                    self._trace_dispatch("clone_requested", packet, vm_id=vm.vm_id)
                return
        if vm.state is VMState.CLONING:
            queue = self._pending.get(packet.dst)
            if queue is None:
                queue = self._pending[packet.dst] = []
                if self.pending_timeout is not None:
                    self._arm_pending_timer(packet.dst, vm)
            if len(queue) >= self.max_pending_per_ip:
                self._c_pending_overflow.increment()
                # The observe() above already accounted this packet on
                # its flow record, but the packet never reaches a VM:
                # roll the accounting back, and drop the record entirely
                # if this packet was the only thing it ever carried.
                record.packets -= 1
                record.bytes -= packet.size
                if created and record.packets == 0:
                    self.flows.discard(record)
                if _obs.ACTIVE is not None:
                    self._trace_dispatch("overflow", packet, vm_id=vm.vm_id)
                return
            queue.append((packet, record))
            self._c_queued_during_clone.increment()
            if _obs.ACTIVE is not None:
                self._trace_dispatch("queued", packet, vm_id=vm.vm_id)
            return
        if vm.state is not VMState.RUNNING:
            # Momentary window between reclamation and map cleanup.
            self._c_vm_not_running.increment()
            if _obs.ACTIVE is not None:
                self._trace_dispatch("vm_not_running", packet, vm_id=vm.vm_id)
            return
        record.vm_id = vm.vm_id
        self._c_delivered.increment()
        if _obs.ACTIVE is not None:
            self._trace_dispatch("delivered", packet, vm_id=vm.vm_id)
        self.backend.deliver(vm, packet)

    def _trace_dispatch(self, verdict: str, packet: Packet, **extra) -> None:
        """Emit one dispatch-verdict event (caller guards on ACTIVE)."""
        _obs.ACTIVE.emit(
            self.sim.now,
            "gateway",
            "dispatch",
            verdict=verdict,
            src=str(packet.src),
            dst=str(packet.dst),
            **extra,
        )

    # ------------------------------------------------------------------ #
    # Pending-queue watchdog (armed only when pending_timeout is set)
    # ------------------------------------------------------------------ #

    def _arm_pending_timer(self, ip: IPAddress, vm: VirtualMachine) -> None:
        self._pending_timers[ip] = self.sim.schedule(
            self.pending_timeout, self._pending_timed_out, ip, vm.vm_id
        )

    def _cancel_pending_timer(self, ip: IPAddress) -> None:
        timer = self._pending_timers.pop(ip, None)
        if timer is not None:
            timer.cancel()

    def _pending_timed_out(self, ip: IPAddress, vm_id: int) -> None:
        """The clone a queue was waiting on never delivered; give up.

        Drops the held packets (accounted under the ``timeout`` cause) and
        — the failover half — unbinds the address from the stuck VM so the
        next packet for it dispatches a fresh clone instead of queueing
        behind a corpse forever.
        """
        self._pending_timers.pop(ip, None)
        queued = self._pending.pop(ip, None)
        if queued:
            self._c_pending_dropped["timeout"].increment(len(queued))
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.emit(
                    self.sim.now, "gateway", "pending_dropped",
                    cause="timeout", ip=str(ip), count=len(queued),
                )
        current = self.vm_map.get(ip)
        if (
            current is not None
            and current.vm_id == vm_id
            and current.state is not VMState.RUNNING
        ):
            self.bind_vm(ip, None)

    def _drop_pending(self, ip: IPAddress, cause: str) -> None:
        self._cancel_pending_timer(ip)
        queued = self._pending.pop(ip, None)
        if queued:
            self._c_pending_dropped[cause].increment(len(queued))
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.emit(
                    self.sim.now, "gateway", "pending_dropped",
                    cause=cause, ip=str(ip), count=len(queued),
                )

    # ------------------------------------------------------------------ #
    # VM lifecycle notifications from the backend
    # ------------------------------------------------------------------ #

    def bind_vm(self, ip: IPAddress, vm: Optional[VirtualMachine]) -> None:
        """Point ``ip`` at ``vm``, or at nothing (``None``): the only
        writer of ``vm_map``.

        The ladder hears of a binding, which outdates every span-cache
        entry resolved at the address. Unbinding outdates nothing: the
        span lane caches no entry for a VM-backed address."""
        if vm is None:
            del self.vm_map[ip]
            return
        self.vm_map[ip] = vm
        if self.ladder is not None:
            self.ladder.vm_bound(ip)

    def vm_ready(self, vm: VirtualMachine) -> None:
        """Flush packets queued while ``vm`` was cloning.

        Each queued packet was already observed by the flow table when it
        arrived; the flush reuses that record rather than observing again
        (which would double-count the packet's flow statistics).
        """
        self._cancel_pending_timer(vm.ip)
        if self.ladder is not None:
            # Replay the emulated prefix of the conversation first, so
            # the queued live packets land on a guest whose state already
            # reflects everything the attacker has seen.
            self._replay_handoff(vm)
        queued = self._pending.pop(vm.ip, [])
        recorder = _obs.ACTIVE
        for index, (packet, record) in enumerate(queued):
            if vm.state is not VMState.RUNNING:
                # The VM died mid-flush: account the unflushed remainder
                # so packet totals still reconcile.
                self._c_pending_dropped["vm_died"].increment(len(queued) - index)
                if recorder is not None:
                    recorder.emit(
                        self.sim.now, "gateway", "pending_dropped",
                        cause="vm_died", ip=str(vm.ip), count=len(queued) - index,
                    )
                break
            record.vm_id = vm.vm_id
            self._c_delivered.increment()
            if recorder is not None:
                recorder.emit(
                    self.sim.now, "gateway", "dispatch",
                    verdict="flushed", src=str(packet.src), dst=str(packet.dst),
                    vm_id=vm.vm_id,
                )
            self.backend.deliver(vm, packet)

    def _replay_handoff(self, vm: VirtualMachine) -> None:
        """Replay a promotion's buffered packets into the fresh VM.

        Replies are suppressed (``deliver_replay``): the emulator already
        answered these packets byte-identically, so re-emitting would
        duplicate what the attacker saw. The replay is accounted only
        under ``ladder.handoff_packets_replayed`` — each packet was
        already counted once, under ``gateway.emulated``, when absorbed.
        """
        handoff = self.ladder.take_handoff(vm.ip)
        if handoff is None:
            return
        replayed = 0
        for packet in handoff.buffered:
            if vm.state is not VMState.RUNNING:
                break
            self.backend.deliver_replay(vm, packet)
            replayed += 1
        self.ladder.handoff_complete(handoff, replayed, vm.vm_id, self.sim.now)

    def vm_retired(self, vm: VirtualMachine, pending_cause: str = "vm_retired") -> None:
        """Drop all state bound to a reclaimed/detained/crashed VM.

        ``pending_cause`` labels any held packets this drops (the farm
        passes ``host_down`` when the VM's host crashed, ``clone_failed``
        when the clone pipeline failed).
        """
        current = self.vm_map.get(vm.ip)
        if current is not None and current.vm_id == vm.vm_id:
            self.bind_vm(vm.ip, None)
        self._drop_pending(vm.ip, pending_cause)
        self.flows.drop_vm(vm.vm_id)
        self.nat.forget_vm(vm.ip)
        if self.ladder is not None:
            self.ladder.vm_retired(vm.ip, pending_cause)

    # ------------------------------------------------------------------ #
    # Outbound path (honeypot -> anywhere)
    # ------------------------------------------------------------------ #

    def emit_from_vm(self, vm: VirtualMachine, packet: Packet) -> None:
        """Handle one packet emitted by a honeypot VM."""
        self._c_vm_packets_out.increment()

        # Internal resolver traffic is farm infrastructure, not egress.
        if self.dns_server is not None and packet.dst == self.dns_server.address:
            self._deliver_dns(vm, packet, original_resolver=None)
            return

        # Reverse reflection NAT: this VM was previously reflected onto an
        # internal stand-in for packet.dst, so the whole conversation must
        # keep routing to the stand-in. Without this, the stand-in's
        # NAT-translated reply leaves a flow whose initiator looks
        # external, and the VM's next packet (e.g. the exploit payload
        # after the SYN handshake) would sail out the reply path.
        rewritten = self.nat.translate_outbound_destination(packet)
        if rewritten is not None:
            self._c_out_nat_rewritten.increment()
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.emit(
                    self.sim.now, "gateway", "containment",
                    action="nat-rewrite", src=str(packet.src),
                    dst=str(packet.dst), vm_id=vm.vm_id,
                )
            # Under federation-wide reflection the recorded stand-in may
            # live in a sibling shard's darknet.
            if not self._route_intershard(rewritten, reply=False):
                self.process_inbound(rewritten.decremented_ttl())
            return

        record, created = self.flows.observe(packet, self.sim.now)
        if not honeypot_initiated(record, created, vm.ip):
            self._emit_reply(vm, packet)
            return

        # Honeypot-initiated traffic: the containment policy decides.
        verdict = self.policy.decide(vm, packet, self.sim.now)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "gateway", "containment",
                action=verdict.action.value,
                src=str(packet.src), dst=str(packet.dst), vm_id=vm.vm_id,
            )
        if verdict.action is ContainmentAction.ALLOW:
            self._c_out_allowed.increment()
            if self.inventory.covers(packet.dst):
                self.process_inbound(packet.decremented_ttl())
            elif not self._route_intershard(packet, reply=False):
                self._c_initiated_external.increment()
                self._send_external(packet)
        elif verdict.action is ContainmentAction.DROP:
            self._c_out_dropped.increment()
        elif verdict.action is ContainmentAction.REDIRECT_DNS:
            self._c_out_dns_redirected.increment()
            self._deliver_dns(vm, packet, original_resolver=packet.dst)
        elif verdict.action is ContainmentAction.REFLECT:
            self._reflect(vm.ip, packet, verdict.new_destination)
        else:  # pragma: no cover - exhaustive over the enum
            raise AssertionError(f"unhandled containment action: {verdict.action!r}")

    def _reflect(
        self, source_ip: IPAddress, packet: Packet, new_destination: Optional[IPAddress]
    ) -> None:
        """Carry out a REFLECT verdict on ``packet``, emitted by the
        honeypot (VM or emulated address) at ``source_ip``."""
        assert new_destination is not None
        self._c_out_reflected.increment()
        # The NAT record stays on the initiating shard: replies come back
        # through the message layer raw and are translated here, mirroring
        # the local reflection path exactly.
        self.nat.record(source_ip, new_destination, packet.dst)
        reflected = packet.with_destination(new_destination)
        if not self._route_intershard(reflected, reply=False):
            self.process_inbound(reflected.decremented_ttl())

    def _emit_reply(self, vm: VirtualMachine, packet: Packet) -> None:
        """Reply on an externally- or peer-initiated flow: always allowed."""
        self._c_reply_allowed.increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "gateway", "containment",
                action="reply", src=str(packet.src), dst=str(packet.dst),
                vm_id=vm.vm_id,
            )
        self._route_reply(packet)

    def _route_reply(self, packet: Packet) -> None:
        """Route an allowed reply (a VM's or the emulator tier's) by its
        destination: internal stand-in, sibling shard, or the Internet."""
        if self.inventory.covers(packet.dst):
            translated = self.nat.translate_reply_source(packet)
            self.process_inbound(translated.decremented_ttl())
        elif not self._route_intershard(packet, reply=True):
            # Without the reply=True lane, a reply to a sibling shard's
            # VM would sail out here as a false external escape — the
            # PR 5 escape class, across shard boundaries.
            self._c_reply_external.increment()
            self._send_external(packet)

    def _emit_emulated_reply(self, packet: Packet) -> None:
        """Route one emulator-tier reply exactly as a VM reply would be.

        Classification is :meth:`emit_from_vm`'s (``honeypot_initiated``),
        so the emulator tier is policy-invisible: a reply riding the
        externally-initiated flow
        is always allowed (NAT-translated back toward internal stand-ins,
        shipped through the owning tunnel otherwise), while a
        *flow-creating* emission — the ICMP unreachable answering a
        closed-port UDP probe opens a fresh ICMP flow — faces the same
        containment verdict the guest's identical packet would, else the
        ladder world leaks packets that clone-always contains. Counted
        under the ladder's own buckets so tier accounting stays distinct
        from ``gateway.outbound.reply_allowed``."""
        self._c_emulated_replies.increment()
        record, created = self.flows.observe(packet, self.sim.now)
        if honeypot_initiated(record, created, packet.src):
            verdict = self.policy.decide(
                _EmulatedSource(packet.src), packet, self.sim.now
            )
            if verdict.action is ContainmentAction.REFLECT:
                self._reflect(packet.src, packet, verdict.new_destination)
                return
            if verdict.action is not ContainmentAction.ALLOW:
                # DROP, or DNS redirection the emulator never initiates.
                self._c_emulated_contained.increment()
                return
        self._route_reply(packet)

    def _route_intershard(self, packet: Packet, reply: bool) -> bool:
        """Hand ``packet`` to the federation message layer when a sibling
        shard owns its destination; False means the caller keeps routing
        locally (standalone farm, own shard, or genuinely external)."""
        port = self.intershard
        if port is None or not port.is_remote(packet.dst):
            return False
        self._c_intershard_out.increment()
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "gateway", "intershard",
                direction="out", reply=reply,
                src=str(packet.src), dst=str(packet.dst),
            )
        generation = -1
        if not reply:
            src_vm = self.vm_map.get(packet.src)
            if (
                src_vm is not None
                and src_vm.guest is not None
                and src_vm.guest.infection is not None
            ):
                generation = src_vm.guest.infection.generation
        port.send(packet, reply, generation)
        return True

    def receive_intershard(
        self, packet: Packet, reply: bool, generation: int = -1
    ) -> None:
        """Deliver one packet arriving from a sibling shard.

        Reply-kind packets cross the boundary raw (the sender holds no
        NAT state for them) and are source-translated *here*, on the
        shard whose VM initiated the reflected flow — the exact mirror of
        the local reply path. The TTL decrements once per gateway
        traversal, same as local forwarding, so reflection ping-pong
        between shards still dies at the TTL horizon. ``generation`` is
        the remote sender's infection depth (``-1`` when the source is
        not an infected farm VM); it is remembered per source address so
        an infection this packet causes chains from the true cross-shard
        generation instead of restarting at zero.
        """
        self._c_intershard_in.increment()
        if not reply and generation >= 0:
            self.remote_generations[packet.src] = generation
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.sim.now, "gateway", "intershard",
                direction="in", reply=reply,
                src=str(packet.src), dst=str(packet.dst),
            )
        if reply:
            packet = self.nat.translate_reply_source(packet)
        self.process_inbound(packet.decremented_ttl())

    def _send_external(self, packet: Packet) -> None:
        """Ship a permitted packet toward the Internet, applying the
        deception egress delay when the controller is attached.

        The delay is keyed on the packet's *source* — the honeypot
        address the attacker is probing — and is constant per address, so
        packets of one flow never reorder; it only de-correlates timing
        *across* addresses, which is the tell fingerprinting scanners
        measure. Purely observational: nothing inside the farm reacts to
        an external packet's departure time, so conservation and guest
        behavior are unchanged."""
        jitter = self.reply_jitter
        if jitter is not None:
            delay = jitter(packet.src)
            if delay > 0.0:
                self._c_deception_delayed.increment()
                self.sim.schedule(delay, self._send_external_now, packet)
                return
        self._send_external_now(packet)

    def _send_external_now(self, packet: Packet) -> None:
        """Ship a permitted packet to the Internet through the tunnel that
        owns its (impersonated) source address."""
        self._c_external_out.increment()
        key = self._tunnel_key_for(packet.src)
        link = self._tunnel_links.get(key) if key is not None else None
        if key is not None and link is not None:
            gre = encapsulate(self._tunnels[key], packet)
            link.deliver(gre, gre.size)
        elif self.external_sink is not None:
            self.external_sink(packet)

    def _deliver_dns(
        self,
        vm: VirtualMachine,
        packet: Packet,
        original_resolver: Optional[IPAddress],
    ) -> None:
        """Complete a DNS transaction against the internal resolver.

        When the query targeted an external resolver and was redirected,
        the response's source is rewritten back to that resolver so the
        guest cannot tell the difference.
        """
        if self.dns_server is None:
            self._c_out_dropped.increment()
            return
        query = (
            packet
            if original_resolver is None
            else packet.with_destination(self.dns_server.address)
        )
        response = self.dns_server.handle_query(query)
        if response is None:
            self._c_dns_malformed.increment()
            return
        if original_resolver is not None:
            response = Packet(
                src=original_resolver,
                dst=response.dst,
                protocol=response.protocol,
                src_port=response.src_port,
                dst_port=response.dst_port,
                payload=response.payload,
                size=response.size,
            )
        self._c_dns_answered.increment()
        # Small, fixed resolver turnaround before the answer reaches the VM.
        self.sim.schedule(0.001, self._deliver_dns_response, vm, response)

    def _deliver_dns_response(self, vm: VirtualMachine, response: Packet) -> None:
        if vm.state is VMState.RUNNING:
            self.backend.deliver(vm, response)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def sweep_flows(self) -> int:
        """Expire idle flows; returns how many were dropped."""
        if self.ladder is not None:
            self.ladder.sweep(self.sim.now)
        expired = len(self.flows.expire_idle(self.sim.now))
        if self._span_lane is not None:
            # After the expiry: what it detached is what the cache lets go.
            self._span_lane.shed()
        return expired

    def tunnel_links(self) -> Dict[int, Link]:
        """The registered tunnel return links, keyed by tunnel key (the
        chaos subsystem impairs these by name)."""
        return dict(self._tunnel_links)

    @property
    def live_vm_count(self) -> int:
        return len(self.vm_map)

    @property
    def pending_packet_count(self) -> int:
        """Packets currently held in pending queues (reconciliation)."""
        return sum(len(queue) for queue in self._pending.values())

    def pending_dropped_total(self) -> int:
        """Sum of pending-queue drops across every cause."""
        return sum(c.value for c in self._c_pending_dropped.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Gateway vms={len(self.vm_map)} flows={len(self.flows)}"
            f" policy={self.policy.name}>"
        )
