"""Which public entry points the traced pass wraps, and how the spans and
public counters become the per-layer metrics.

Span names are ``<module>.<operation>`` with ``<module>`` the wrapped
function's module under ``repro`` (``core.gateway.process_inbound``), so
a layer's self time is the sum over its spans and the layers' self times
plus the unattributed remainder equal the root span. Nothing here edits
the program: every wrapper is installed at class or module level from
outside and removed when the pass ends.
"""

from __future__ import annotations

import gc
import importlib
import pickle
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Patcher, SpanRecorder, SpanTotals, counted, timed

__all__ = [
    "LAYER_METRICS",
    "ROOT_SPAN",
    "GcWatch",
    "farm_facts",
    "install_layers",
    "install_parallel",
    "layer_table",
    "layer_metrics",
    "parallel_metrics",
]

#: The benchmark's own span around the timed region.
ROOT_SPAN = "harness.timed"

#: (span name, module, class or None for a module function, attribute).
_TIMED: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim.engine.run", "repro.sim.engine", "Simulator", "run"),
    ("sim.batch.drain", "repro.sim.batch", "PacketArrivalStream", "drain"),
    ("core.gateway.process_inbound", "repro.core.gateway", "Gateway", "process_inbound"),
    ("core.gateway.dispatch_batch", "repro.core.gateway", "Gateway", "dispatch_batch"),
    ("core.gateway.emit_from_vm", "repro.core.gateway", "Gateway", "emit_from_vm"),
    ("core.gateway.receive_intershard", "repro.core.gateway", "Gateway", "receive_intershard"),
    ("core.gateway.vm_ready", "repro.core.gateway", "Gateway", "vm_ready"),
    ("core.gateway.vm_retired", "repro.core.gateway", "Gateway", "vm_retired"),
    ("core.gateway.sweep_flows", "repro.core.gateway", "Gateway", "sweep_flows"),
    ("net.flow.observe", "repro.net.flow", "FlowTable", "observe"),
    ("net.flow.observe_keyed", "repro.net.flow", "FlowTable", "observe_keyed"),
    ("net.flow.lookup", "repro.net.flow", "FlowTable", "lookup"),
    ("net.flow.live_record", "repro.net.flow", "FlowTable", "live_record"),
    ("net.flow.create", "repro.net.flow", "FlowTable", "create"),
    ("net.flow.discard", "repro.net.flow", "FlowTable", "discard"),
    ("net.flow.expire_idle", "repro.net.flow", "FlowTable", "expire_idle"),
    ("net.flow.drop_vm", "repro.net.flow", "FlowTable", "drop_vm"),
    ("fidelity.ladder.consider", "repro.fidelity.ladder", "FidelityLadder", "consider"),
    ("fidelity.ladder.take_handoff", "repro.fidelity.ladder", "FidelityLadder", "take_handoff"),
    ("fidelity.ladder.handoff_complete", "repro.fidelity.ladder", "FidelityLadder", "handoff_complete"),
    ("fidelity.ladder.vm_retired", "repro.fidelity.ladder", "FidelityLadder", "vm_retired"),
    ("fidelity.ladder.sweep", "repro.fidelity.ladder", "FidelityLadder", "sweep"),
    ("fidelity.emulator.note", "repro.fidelity.emulator", "EmulatedSession", "note"),
    ("fidelity.emulator.emulate", "repro.fidelity.emulator", "EmulatedSession", "emulate"),
    ("core.flash_clone.clone", "repro.core.flash_clone", "FlashCloneEngine", "clone"),
    ("vmm.memory.init", "repro.vmm.memory", "GuestAddressSpace", "__init__"),
    ("vmm.memory.write", "repro.vmm.memory", "GuestAddressSpace", "write"),
    ("vmm.memory.check_frame_invariant", "repro.vmm.memory", "MachineMemory", "check_frame_invariant"),
    ("vmm.host.admit", "repro.vmm.host", "PhysicalHost", "admit"),
    ("vmm.host.evict", "repro.vmm.host", "PhysicalHost", "evict"),
    ("vmm.host.idle_vms", "repro.vmm.host", "PhysicalHost", "idle_vms"),
    ("services.guest.boot", "repro.services.guest", "GuestHost", "__init__"),
    ("services.guest.handle_packet", "repro.services.guest", "GuestHost", "handle_packet"),
    ("services.guest.stop", "repro.services.guest", "GuestHost", "stop"),
    ("core.containment.decide", "repro.core.containment", "OpenPolicy", "decide"),
    ("core.containment.decide", "repro.core.containment", "DropAllPolicy", "decide"),
    ("core.containment.decide", "repro.core.containment", "AllowDnsPolicy", "decide"),
    ("core.containment.decide", "repro.core.containment", "ReflectionPolicy", "decide"),
    ("core.containment.decide", "repro.core.containment", "CompositePolicy", "decide"),
    ("core.containment.nat", "repro.core.containment", "ReflectionNat", "record"),
    ("core.containment.nat", "repro.core.containment", "ReflectionNat", "translate_outbound_destination"),
    ("core.containment.nat", "repro.core.containment", "ReflectionNat", "translate_reply_source"),
    ("core.containment.nat", "repro.core.containment", "ReflectionNat", "forget_vm"),
    ("core.reclamation.plan", "repro.core.reclamation", "CompositeReclamation", "plan"),
    ("core.honeyfarm.run", "repro.core.honeyfarm", "Honeyfarm", "run"),
    ("core.honeyfarm.inject", "repro.core.honeyfarm", "Honeyfarm", "inject"),
    ("core.honeyfarm.inject_batch", "repro.core.honeyfarm", "Honeyfarm", "inject_batch"),
    ("core.honeyfarm.spawn_vm", "repro.core.honeyfarm", "Honeyfarm", "spawn_vm"),
    ("core.honeyfarm.deliver", "repro.core.honeyfarm", "Honeyfarm", "deliver"),
    ("core.honeyfarm.deliver_replay", "repro.core.honeyfarm", "Honeyfarm", "deliver_replay"),
    ("workloads.trace.replay", "repro.workloads.trace", None, "replay_into_farm"),
    ("core.intershard.run_epoch", "repro.core.intershard", "ShardRunner", "run_epoch"),
    ("core.intershard.mailbox", "repro.core.intershard", "ShardRunner", "deposit"),
    ("core.intershard.mailbox", "repro.core.intershard", "ShardRunner", "send"),
    ("core.intershard.codec", "repro.core.intershard", None, "encode_packet"),
    ("core.intershard.codec", "repro.core.intershard", None, "decode_packet"),
    ("core.intershard.codec", "repro.core.intershard", "ShardMessage", "encode"),
    ("core.intershard.codec", "repro.core.intershard", "ShardMessage", "decode"),
)

#: Heap callbacks are named after ``callback.__module__``. Generator
#: processes resume through ``repro.sim.process``; in these workloads
#: every process is a guest's scan or beacon loop, so that is where the
#: time belongs.
_CALLBACK_OWNER = {"repro.sim.process": "services.guest.process"}

#: Layers a span may be charged to; anything else is unattributed.
_LAYERS = (
    "sim.engine", "sim.batch", "core.gateway", "net.flow",
    "fidelity.ladder", "fidelity.emulator", "core.flash_clone",
    "vmm.memory", "vmm.host", "services.guest", "core.containment",
    "core.reclamation", "core.honeyfarm", "workloads.trace",
    "core.intershard",
)


def _resolve(module: str, cls: Optional[str]) -> Any:
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def _callback_span(module: str) -> str:
    owner = _CALLBACK_OWNER.get(module)
    if owner is not None:
        return owner
    if module.startswith("repro."):
        return module[len("repro."):] + ".callback"
    return "other." + module + ".callback"


def _trace_callbacks(rec: SpanRecorder) -> Callable[[Callable], Callable]:
    """Wrapper factory for ``Simulator.schedule_at`` — the one method
    ``schedule`` and ``call_now`` both end in — that runs each heap
    callback inside a span named after the callback's module."""
    span_ids: Dict[str, int] = {}

    def run_callback(callback: Callable[..., Any], *args: Any) -> None:
        module = getattr(callback, "__module__", None) or "unknown"
        nid = span_ids.get(module)
        if nid is None:
            nid = span_ids[module] = rec.name_id(_callback_span(module))
        index = rec.enter(nid)
        try:
            callback(*args)
        finally:
            rec.exit(index)

    def wrap(schedule_at: Callable[..., Any]) -> Callable[..., Any]:
        def traced_schedule_at(sim, time, callback, *args):
            return schedule_at(sim, time, run_callback, callback, *args)

        return traced_schedule_at

    return wrap


def install_layers(rec: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every in-farm layer boundary. Install before the farm is
    built: arrival streams and guests capture bound methods at
    construction, and only methods resolved after the patch see it."""
    for name, module, cls, attr in _TIMED:
        patcher.patch(
            _resolve(module, cls), attr,
            lambda func, name=name: timed(rec, name, func),
        )
    gateway = _resolve("repro.core.gateway", "Gateway")
    patcher.patch(
        gateway, "dispatch_span",
        lambda func: timed(
            rec, "core.gateway.dispatch_span", func,
            tally=lambda args, consumed: consumed,
        ),
    )
    patcher.patch(
        _resolve("repro.vmm.memory", "GuestAddressSpace"), "destroy",
        lambda func: timed(
            rec, "vmm.memory.destroy", func,
            tally=lambda args, freed: args[0].cow_faults,
        ),
    )
    patcher.patch(
        _resolve("repro.sim.batch", "PacketColumns"), "packet_at",
        lambda func: counted(rec, "sim.batch.packet_at", func),
    )
    patcher.patch(
        _resolve("repro.sim.engine", "Simulator"), "schedule_at",
        _trace_callbacks(rec),
    )


def install_parallel(rec: SpanRecorder, patcher: Patcher) -> None:
    """Wrap the coordinator side of the parallel federation: the run
    itself and the pipe ``send`` / ``recv`` it blocks in. Workers are
    separate processes and stay opaque."""
    patcher.patch(
        _resolve("repro.core.parallel", "ParallelFederation"), "run",
        lambda func: timed(rec, "core.parallel.run", func),
    )
    connection = _resolve("multiprocessing.connection", "Connection")
    patcher.patch(
        connection, "send",
        lambda func: timed(rec, "core.parallel.send", func),
    )

    def outbound_bytes(args: tuple, message: Any) -> int:
        # ("done", [encoded ShardMessage, ...]) is a worker's epoch reply.
        if isinstance(message, tuple) and message and message[0] == "done":
            return len(pickle.dumps(message[1], pickle.HIGHEST_PROTOCOL))
        return 0

    patcher.patch(
        connection, "recv",
        lambda func: timed(rec, "core.parallel.recv", func, tally=outbound_bytes),
    )


class GcWatch:
    """Collector pauses over an interval, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_s += perf_counter() - self._started
            if info["generation"] == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)


# ---------------------------------------------------------------------- #
# Spans + public counters -> metrics
# ---------------------------------------------------------------------- #

def _layer_of(span: str) -> Optional[str]:
    layer = span.rsplit(".", 1)[0]
    return layer if layer in _LAYERS else None


def layer_table(totals: Dict[str, SpanTotals]) -> Dict[str, float]:
    """Self seconds per layer plus ``unattributed`` (the root harness's
    own time and spans no listed layer owns); sums to the root span."""
    table = {layer: 0.0 for layer in _LAYERS}
    table["unattributed"] = 0.0
    for span, (__, __, self_s) in totals.items():
        table[_layer_of(span) or "unattributed"] += self_s
    return table


def farm_facts(farms: List[Any]) -> Dict[str, float]:
    """Counts read from public attributes of the finished farm(s)."""
    counters: Dict[str, int] = {}
    facts = dict.fromkeys(
        ("events", "compactions", "flows_expired", "flows_live",
         "attach_hits", "peak_frames", "live_cow_faults", "hosts"), 0,
    )
    facts["farms"] = len(farms)
    for farm in farms:
        for name, value in farm.metrics.counters().items():
            counters[name] = counters.get(name, 0) + value
        facts["events"] += farm.sim.events_processed
        facts["compactions"] += farm.sim.compactions
        facts["flows_expired"] += farm.gateway.flows.expired_total
        facts["flows_live"] += len(farm.gateway.flows)
        facts["hosts"] += len(farm.hosts)
        for host in farm.hosts:
            facts["peak_frames"] += host.memory.peak_allocated_frames
            if host.memory.sharing is not None:
                facts["attach_hits"] += host.memory.sharing.attach_hits
            for vm in host.vms():
                facts["live_cow_faults"] += vm.address_space.cow_faults
    facts["counters"] = counters
    return facts


#: Every per-layer metric the traced pass reports: (name, unit, better).
#: ``BENCHMARK.json`` lists exactly these; a test keeps the two equal.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_packet", "ratio", "lower"),
    ("sim.engine.compactions", "count", "lower"),
    ("sim.batch.drain_self_s", "s", "lower"),
    ("sim.batch.drains", "count", "lower"),
    ("sim.batch.packets_materialised", "count", "lower"),
    ("sim.batch.fast_path_share", "ratio", "higher"),
    ("core.gateway.process_inbound_self_s", "s", "lower"),
    ("core.gateway.process_inbound_calls", "count", "lower"),
    ("core.gateway.dispatch_batch_self_s", "s", "lower"),
    ("core.gateway.dispatch_span_self_s", "s", "lower"),
    ("core.gateway.dispatch_span_calls", "count", "lower"),
    ("core.gateway.span_mean_len", "packets", "higher"),
    ("core.gateway.emit_from_vm_self_s", "s", "lower"),
    ("core.gateway.emit_from_vm_calls", "count", "lower"),
    ("core.gateway.receive_intershard_self_s", "s", "lower"),
    ("core.gateway.vm_lifecycle_self_s", "s", "lower"),
    ("core.gateway.pending_dropped", "count", "lower"),
    ("net.flow.self_s", "s", "lower"),
    ("net.flow.observe_calls", "count", "lower"),
    ("net.flow.expire_idle_self_s", "s", "lower"),
    ("net.flow.expired", "count", "lower"),
    ("net.flow.live_final", "count", "lower"),
    ("fidelity.ladder.self_s", "s", "lower"),
    ("fidelity.ladder.consider_calls", "count", "lower"),
    ("fidelity.ladder.promotions", "count", "lower"),
    ("fidelity.ladder.emulated_share", "ratio", "higher"),
    ("fidelity.emulator.self_s", "s", "lower"),
    ("core.flash_clone.self_s", "s", "lower"),
    ("core.flash_clone.clones", "count", "lower"),
    ("core.flash_clone.clone_failures", "count", "lower"),
    ("vmm.memory.write_self_s", "s", "lower"),
    ("vmm.memory.writes", "count", "lower"),
    ("vmm.memory.destroy_self_s", "s", "lower"),
    ("vmm.memory.share_hit_ratio", "ratio", "higher"),
    ("vmm.memory.cow_faults", "count", "lower"),
    ("vmm.memory.peak_frames", "count", "lower"),
    ("vmm.host.self_s", "s", "lower"),
    ("services.guest.handle_packet_self_s", "s", "lower"),
    ("services.guest.handle_packet_calls", "count", "lower"),
    ("services.guest.process_self_s", "s", "lower"),
    ("services.guest.infections", "count", "higher"),
    ("core.containment.decide_self_s", "s", "lower"),
    ("core.containment.decide_calls", "count", "lower"),
    ("core.containment.nat_self_s", "s", "lower"),
    ("core.containment.reflected", "count", "higher"),
    ("core.containment.dropped", "count", "higher"),
    ("core.reclamation.plan_self_s", "s", "lower"),
    ("core.reclamation.sweeps", "count", "lower"),
    ("core.reclamation.vms_reclaimed", "count", "higher"),
    ("core.honeyfarm.self_s", "s", "lower"),
    ("workloads.trace.replay_self_s", "s", "lower"),
    ("workloads.telescope.generate_s", "s", "lower"),
    ("core.intershard.run_epoch_self_s", "s", "lower"),
    ("core.intershard.codec_self_s", "s", "lower"),
    ("core.intershard.mailbox_self_s", "s", "lower"),
    ("core.intershard.messages", "count", "lower"),
    ("core.intershard.wire_bytes_per_msg", "bytes", "lower"),
    ("core.parallel.coord_send_s", "s", "lower"),
    ("core.parallel.coord_recv_wait_s", "s", "lower"),
    ("core.parallel.straggler_wait_s", "s", "lower"),
    ("core.parallel.epochs", "count", "lower"),
    ("core.parallel.speedup_vs_1worker", "ratio", "higher"),
    ("core.parallel.efficiency", "ratio", "higher"),
    ("runtime.gc_pause_s", "s", "lower"),
    ("runtime.gc_gen2_collections", "count", "lower"),
    ("runtime.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _calls(totals: Dict[str, SpanTotals], span: str) -> int:
    return totals[span][0] if span in totals else 0


def _own(totals: Dict[str, SpanTotals], *spans: str) -> float:
    """Summed self seconds of the named spans."""
    return sum(totals[span][2] for span in spans if span in totals)


def layer_metrics(
    totals: Dict[str, SpanTotals],
    table: Dict[str, float],
    counts: Dict[str, int],
    facts: Dict[str, Any],
    packets_in: int,
    emulated: int,
    messages: int,
) -> Dict[str, float]:
    """The in-farm per-layer metrics of one traced root (single farm, or
    the federation's in-process reference lane); ``table`` is its
    :func:`layer_table`. ``core.parallel.*``,
    ``runtime.*``, ``trace.overhead_ratio`` and the set-up timings are
    added by the caller, which owns those measurements."""
    counters = facts["counters"]
    root_s = sum(table.values())

    def calls(span: str) -> int:
        return _calls(totals, span)

    def own(*spans: str) -> float:
        return _own(totals, *spans)

    span_packets = counts.get("core.gateway.dispatch_span:tally", 0)
    writes = calls("vmm.memory.write")
    return {
        "sim.engine.self_s": table["sim.engine"],
        "sim.engine.events": facts["events"],
        "sim.engine.events_per_packet": _ratio(facts["events"], packets_in),
        "sim.engine.compactions": facts["compactions"],
        "sim.batch.drain_self_s": own("sim.batch.drain"),
        "sim.batch.drains": calls("sim.batch.drain"),
        "sim.batch.packets_materialised": counts.get("sim.batch.packet_at", 0),
        "sim.batch.fast_path_share": _ratio(span_packets, packets_in),
        "core.gateway.process_inbound_self_s": own("core.gateway.process_inbound"),
        "core.gateway.process_inbound_calls": calls("core.gateway.process_inbound"),
        "core.gateway.dispatch_batch_self_s": own("core.gateway.dispatch_batch"),
        "core.gateway.dispatch_span_self_s": own("core.gateway.dispatch_span"),
        "core.gateway.dispatch_span_calls": calls("core.gateway.dispatch_span"),
        "core.gateway.span_mean_len": _ratio(
            span_packets, calls("core.gateway.dispatch_span")
        ),
        "core.gateway.emit_from_vm_self_s": own("core.gateway.emit_from_vm"),
        "core.gateway.emit_from_vm_calls": calls("core.gateway.emit_from_vm"),
        "core.gateway.receive_intershard_self_s": own(
            "core.gateway.receive_intershard"
        ),
        "core.gateway.vm_lifecycle_self_s": own(
            "core.gateway.vm_ready", "core.gateway.vm_retired"
        ),
        "core.gateway.pending_dropped": sum(
            value for name, value in counters.items()
            if name.startswith("gateway.pending_dropped_")
        ),
        "net.flow.self_s": table["net.flow"],
        "net.flow.observe_calls": calls("net.flow.observe_keyed"),
        "net.flow.expire_idle_self_s": own("net.flow.expire_idle"),
        "net.flow.expired": facts["flows_expired"],
        "net.flow.live_final": facts["flows_live"],
        "fidelity.ladder.self_s": table["fidelity.ladder"],
        "fidelity.ladder.consider_calls": calls("fidelity.ladder.consider"),
        "fidelity.ladder.promotions": counters.get("ladder.promotions", 0),
        "fidelity.ladder.emulated_share": _ratio(emulated, packets_in),
        "fidelity.emulator.self_s": table["fidelity.emulator"],
        "core.flash_clone.self_s": table["core.flash_clone"],
        "core.flash_clone.clones": counters.get("farm.vms_spawned", 0),
        "core.flash_clone.clone_failures": counters.get("farm.clone_failures", 0),
        "vmm.memory.write_self_s": own("vmm.memory.write"),
        "vmm.memory.writes": writes,
        "vmm.memory.destroy_self_s": own("vmm.memory.destroy"),
        "vmm.memory.share_hit_ratio": _ratio(facts["attach_hits"], writes),
        "vmm.memory.cow_faults": (
            counts.get("vmm.memory.destroy:tally", 0) + facts["live_cow_faults"]
        ),
        "vmm.memory.peak_frames": facts["peak_frames"],
        "vmm.host.self_s": table["vmm.host"],
        "services.guest.handle_packet_self_s": own("services.guest.handle_packet"),
        "services.guest.handle_packet_calls": calls("services.guest.handle_packet"),
        "services.guest.process_self_s": own("services.guest.process"),
        "services.guest.infections": counters.get("farm.infections", 0),
        "core.containment.decide_self_s": own("core.containment.decide"),
        "core.containment.decide_calls": calls("core.containment.decide"),
        "core.containment.nat_self_s": own("core.containment.nat"),
        "core.containment.reflected": counters.get("gateway.outbound.reflected", 0),
        "core.containment.dropped": counters.get("gateway.outbound.dropped", 0),
        "core.reclamation.plan_self_s": own("core.reclamation.plan"),
        # Each farm sweep plans once per host of that farm.
        "core.reclamation.sweeps": _ratio(
            calls("core.reclamation.plan") * facts["farms"], facts["hosts"]
        ),
        "core.reclamation.vms_reclaimed": counters.get("farm.vms_reclaimed", 0),
        "core.honeyfarm.self_s": table["core.honeyfarm"],
        "workloads.trace.replay_self_s": own("workloads.trace.replay"),
        "core.intershard.run_epoch_self_s": own("core.intershard.run_epoch"),
        "core.intershard.codec_self_s": own("core.intershard.codec"),
        "core.intershard.mailbox_self_s": own("core.intershard.mailbox"),
        "core.intershard.messages": messages,
        "trace.unattributed_share": _ratio(table["unattributed"], root_s),
    }


def parallel_metrics(
    rec: SpanRecorder, root: int, epochs: int, messages: int
) -> Dict[str, float]:
    """Coordinator-side metrics of one traced ``ParallelFederation.run``.

    Each epoch the coordinator sends to every worker, then receives from
    each in turn: the first ``recv`` after a ``send`` waits for that
    worker's compute, any later one only for what that worker still had
    left — the straggler's excess."""
    totals = rec.totals(root)
    send_id = rec.name_id("core.parallel.send")
    recv_id = rec.name_id("core.parallel.recv")
    straggler = 0.0
    recvs_since_send = 0
    for index in range(root, rec.subtree_end(root)):
        nid = rec.name_ids[index]
        if nid == send_id:
            recvs_since_send = 0
        elif nid == recv_id:
            if recvs_since_send:
                straggler += rec.duration(index)
            recvs_since_send += 1
    wire_bytes = rec.counts.get("core.parallel.recv:tally", 0)
    return {
        "core.parallel.coord_send_s": _own(totals, "core.parallel.send"),
        "core.parallel.coord_recv_wait_s": _own(totals, "core.parallel.recv"),
        "core.parallel.straggler_wait_s": straggler,
        "core.parallel.epochs": epochs,
        "core.intershard.wire_bytes_per_msg": _ratio(wire_bytes, messages),
    }
