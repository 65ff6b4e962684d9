"""Fast-path performance harness.

Measures the costs this repo's perf work targets, end to end, and writes
machine-readable results for regression tracking:

* ``BENCH_gateway.json`` — per-packet dispatch microbenchmarks:
  - **hot path**: an established flow to a RUNNING VM, including the
    guest's synchronous reply and the egress containment decision;
  - **stray path**: a packet outside every registered prefix (the
    binary-search rejection path);
  - **packet storm**: a full fixed-seed telescope scenario through a
    4-host farm (clone pipeline, flow table, reclamation sweeps, heap
    compaction), reported as wall seconds and events/second.
* ``BENCH_memory.json`` — the content-sharing A/B: the same fixed-seed
  worm packet storm on a memory-constrained host, once with the
  shared-frame store on and once off, recording peak resident frames,
  pressure events/evictions, clone churn, and the frames sharing saved.
* ``BENCH_heap.json`` — what the process holds: the end-to-end
  benchmark's ``vm_churn`` and ``mixed_storm`` storms under
  ``tracemalloc``, reporting traced bytes per live VM / per live flow at
  the busiest simulated second, bytes still held once the farm has
  drained (no VM, flow or session left), and the per-VM / per-flow
  objects still alive then. The run **fails** if a ``VirtualMachine`` or
  ``FlowRecord`` outlives the drain: host memory follows the live farm.
* ``BENCH_sweeps.json`` — the parallel grid sweeps (see
  ``sweep_runner.py``).

Run::

    PYTHONPATH=src python benchmarks/perf_harness.py [--smoke] [--skip-sweeps]

``--smoke`` shrinks iteration counts so CI finishes in seconds; the JSON
shape is identical.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# The heap section measures the end-to-end benchmark's own storms.
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads as e2e_workloads

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet, udp_packet
from repro.vmm.memory import PAGE_SIZE
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm

REPORT_DIR = Path(__file__).resolve().parent / "reports"

HOT_ITERATIONS = 200_000
HOT_ITERATIONS_SMOKE = 20_000
STORM_DURATION = 120.0
STORM_DURATION_SMOKE = 20.0
MEMORY_VICTIMS = 120
MEMORY_VICTIMS_SMOKE = 40
MEMORY_DURATION = 30.0
MEMORY_DURATION_SMOKE = 10.0
HEAP_SEED = 424742  # benchmarks/e2e's default seed
#: The per-VM and per-flow types a farm allocates as it serves traffic;
#: live instances of each should number what the farm has live.
HEAP_TYPES = (
    "VirtualMachine", "GuestHost", "GuestAddressSpace", "CloneResult",
    "FlowRecord", "EmulatedSession", "FlowState",
)
#: (e2e workload, the live count its bytes are divided by, the key that
#: quotient is reported under).
HEAP_STORMS = (
    ("vm_churn", "live_vms", "bytes_per_live_vm"),
    ("mixed_storm", "live_flows", "bytes_per_live_flow"),
)


def _quiet_farm() -> Honeyfarm:
    """A farm with timers pushed out of the measurement window, so the
    loop below times the dispatch path and nothing else."""
    return Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/16",),
        num_hosts=4,
        idle_timeout_seconds=1e6,
        flow_idle_timeout_seconds=1e6,
        sweep_interval_seconds=1e5,
        clone_jitter=0.0,
        seed=3,
    ))


def bench_dispatch(iterations: int) -> Dict[str, Any]:
    """Microbenchmark the two per-packet decision paths."""
    farm = _quiet_farm()
    attacker = IPAddress.parse("203.0.113.123")
    target = IPAddress.parse("10.16.0.77")
    farm.inject(tcp_packet(attacker, target, 1, 445))
    farm.run(until=2.0)  # let the clone finish so the VM is RUNNING

    process_inbound = farm.gateway.process_inbound
    hot_packet = tcp_packet(attacker, target, 2, 445)
    t0 = time.perf_counter()
    for _ in range(iterations):
        process_inbound(hot_packet)
    hot_wall = time.perf_counter() - t0

    stray_packet = tcp_packet(attacker, IPAddress.parse("172.16.0.1"), 2, 445)
    t0 = time.perf_counter()
    for _ in range(iterations):
        process_inbound(stray_packet)
    stray_wall = time.perf_counter() - t0

    return {
        "iterations": iterations,
        "hot_path": {
            "us_per_packet": round(hot_wall / iterations * 1e6, 4),
            "packets_per_second": round(iterations / hot_wall),
        },
        "stray_path": {
            "us_per_packet": round(stray_wall / iterations * 1e6, 4),
            "packets_per_second": round(iterations / stray_wall),
        },
    }


def bench_packet_storm(duration: float) -> Dict[str, Any]:
    """Wall-time a full fixed-seed telescope scenario through a farm."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/16",),
        num_hosts=4,
        idle_timeout_seconds=60.0,
        flow_idle_timeout_seconds=60.0,
        sweep_interval_seconds=5.0,
        clone_jitter=0.01,
        containment="reflect",
        seed=11,
    ))
    workload = TelescopeWorkload(
        list(farm.inventory.prefixes), TelescopeConfig(seed=202)
    )
    records = workload.generate(duration)
    t0 = time.perf_counter()
    replay_into_farm(farm, records)
    farm.run(until=duration)
    wall = time.perf_counter() - t0
    return {
        "sim_duration_seconds": duration,
        "trace_packets": len(records),
        "wall_seconds": round(wall, 4),
        "events_processed": farm.sim.events_processed,
        "events_per_second": round(farm.sim.events_processed / wall),
        "heap_compactions": farm.sim.compactions,
        "live_vms_final": farm.live_vms,
        "flows_expired": farm.gateway.flows.expired_total,
    }


def _memory_storm(
    victims: int, duration: float, content_sharing: bool
) -> Dict[str, Any]:
    """One fixed-seed slammer storm on a memory-constrained host.

    The host is sized *between* the two modes' demand (~198 frames per
    victim with sharing on, ~262 with it off, plus the 4096-frame image)
    so that only the sharing-off run crosses the pressure threshold.
    """
    host_frames = 4096 + 240 * victims
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",),
        num_hosts=1,
        host_memory_bytes=host_frames * PAGE_SIZE,
        vm_image_bytes=16 * (1 << 20),
        containment="drop-all",
        clone_jitter=0.0,
        seed=17,
        memory_pressure_threshold=0.9,
        idle_timeout_seconds=600.0,
        sweep_interval_seconds=1.0,
        content_sharing=content_sharing,
    ))
    attacker = IPAddress.parse("203.0.113.99")
    for i in range(victims):
        farm.sim.schedule(
            0.02 * i,
            farm.inject,
            udp_packet(
                attacker,
                IPAddress.parse(f"10.16.0.{(i % 254) + 1}"),
                1, 1434, payload="exploit:slammer",
            ),
        )
    t0 = time.perf_counter()
    farm.run(until=duration)
    wall = time.perf_counter() - t0
    memory = farm.hosts[0].memory
    memory.check_frame_invariant()
    counters = farm.metrics.counters()
    pressure_events = sum(
        getattr(policy, "pressure_events", 0)
        for policy in farm.reclamation.policies
    )
    clones = farm.clone_engine.completed
    return {
        "content_sharing": content_sharing,
        "victims": victims,
        "host_frames": host_frames,
        "sim_duration_seconds": duration,
        "wall_seconds": round(wall, 4),
        "events_processed": farm.sim.events_processed,
        "clones_completed": clones,
        "clones_per_sim_second": round(clones / duration, 2),
        "mean_clone_latency_seconds": round(
            farm.clone_engine.mean_latency_seconds(), 4
        ),
        "infections": farm.infection_count(),
        "peak_allocated_frames": memory.peak_allocated_frames,
        "final_allocated_frames": memory.allocated_frames,
        "shared_frames": memory.shared_frames,
        "sharing_savings_frames": memory.sharing_savings_frames,
        "pressure_events": pressure_events,
        "pressure_evictions": counters.get("farm.pressure_evictions", 0),
        "sweep_reclaims": counters.get("farm.sweep_reclaims", 0),
        "allocation_failures": memory.allocation_failures,
    }


def bench_memory(victims: int, duration: float) -> Dict[str, Any]:
    """The content-sharing A/B on one fixed-seed worm packet storm."""
    on = _memory_storm(victims, duration, content_sharing=True)
    off = _memory_storm(victims, duration, content_sharing=False)
    return {
        "sharing_on": on,
        "sharing_off": off,
        "comparison": {
            "peak_frames_saved": (
                off["peak_allocated_frames"] - on["peak_allocated_frames"]
            ),
            "pressure_events_avoided": (
                off["pressure_events"] - on["pressure_events"]
            ),
            "evictions_avoided": (
                (off["pressure_evictions"] + off["sweep_reclaims"])
                - (on["pressure_evictions"] + on["sweep_reclaims"])
            ),
            "sharing_wins": (
                on["pressure_events"] < off["pressure_events"]
                and on["peak_allocated_frames"] < off["peak_allocated_frames"]
            ),
        },
    }


def heap_census() -> Dict[str, int]:
    """Live instances of each of ``HEAP_TYPES``, after a full collection."""
    gc.collect()
    alive = collections.Counter(type(obj).__name__ for obj in gc.get_objects())
    return {name: alive[name] for name in HEAP_TYPES}


def drain(farm: Honeyfarm) -> None:
    """Run ``farm`` with no further input until it is quiescent: every VM
    reclaimed, every flow and emulated session expired."""
    config = farm.config
    step = (
        max(config.idle_timeout_seconds, config.flow_idle_timeout_seconds)
        + config.sweep_interval_seconds
    )
    for __ in range(100):
        if not (
            farm.live_vms
            or len(farm.gateway.flows)
            or (farm.ladder is not None and farm.ladder.sessions)
        ):
            return
        farm.run(until=farm.sim.now + step)
    raise RuntimeError(f"{farm!r} did not drain")


def heap_profile(name: str, size: str, per: str, quotient: str) -> Dict[str, Any]:
    """One e2e storm under ``tracemalloc``, sampled every simulated
    second and then drained. ``per`` names what the storm's bytes are
    divided by, ``live_vms`` or ``live_flows``, at the sample where that
    count peaked, and ``quotient`` the key the result goes under. Byte
    figures are relative to the set-up farm with its trace attached, so
    they count what serving the traffic allocated."""
    tracemalloc.start()
    try:
        run = e2e_workloads.prepare(name, HEAP_SEED, size)
        farm = run.farm
        replay_into_farm(farm, run.trace, batched=True)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        busiest = {"live_vms": 0, "live_flows": 0, "bytes": 0, "sim_time": 0.0}
        end = run.scenario.duration + e2e_workloads.COOLDOWN_SECONDS
        while farm.sim.now < end:
            farm.run(until=min(farm.sim.now + 1.0, end))
            sample = {
                "live_vms": farm.live_vms,
                "live_flows": len(farm.gateway.flows),
                "bytes": tracemalloc.get_traced_memory()[0] - base,
                "sim_time": farm.sim.now,
            }
            if sample[per] > busiest[per]:
                busiest = sample
        clones = farm.clone_engine.completed
        drain(farm)
        retained = heap_census()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    lane = farm.gateway._span_lane
    return {
        "workload": name,
        "size": size,
        "packets": len(run.trace),
        "clones_completed": clones,
        "busiest_second": busiest,
        quotient: round(busiest["bytes"] / max(busiest[per], 1)),
        "bytes_held_after_drain": held,
        "span_cache_entries_after_drain": 0 if lane is None else len(lane.cache),
        "retained_after_drain": retained,
    }


def bench_heap(smoke: bool) -> Dict[str, Any]:
    size = "smoke" if smoke else "bench"
    return {
        name: heap_profile(name, size, per, quotient)
        for name, per, quotient in HEAP_STORMS
    }


def run_gateway_bench(smoke: bool = False) -> Dict[str, Any]:
    iterations = HOT_ITERATIONS_SMOKE if smoke else HOT_ITERATIONS
    duration = STORM_DURATION_SMOKE if smoke else STORM_DURATION
    return {
        "config": {"smoke": smoke},
        "dispatch": bench_dispatch(iterations),
        "packet_storm": bench_packet_storm(duration),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small iteration counts for CI")
    parser.add_argument("--skip-sweeps", action="store_true",
                        help="only write BENCH_gateway.json")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the sweeps (default: all cores)")
    args = parser.parse_args(argv)

    REPORT_DIR.mkdir(exist_ok=True)
    doc = run_gateway_bench(smoke=args.smoke)
    gateway_out = REPORT_DIR / "BENCH_gateway.json"
    gateway_out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {gateway_out}")

    memory_doc = {
        "config": {"smoke": args.smoke},
        "worm_storm": bench_memory(
            MEMORY_VICTIMS_SMOKE if args.smoke else MEMORY_VICTIMS,
            MEMORY_DURATION_SMOKE if args.smoke else MEMORY_DURATION,
        ),
    }
    memory_out = REPORT_DIR / "BENCH_memory.json"
    memory_out.write_text(json.dumps(memory_doc, indent=2) + "\n")
    print(f"wrote {memory_out}")
    storm_ab = memory_doc["worm_storm"]
    for label in ("sharing_on", "sharing_off"):
        row = storm_ab[label]
        print(f"  {label}: peak {row['peak_allocated_frames']} frames,"
              f" {row['pressure_events']} pressure events,"
              f" {row['pressure_evictions']} pressure evictions,"
              f" saved {row['sharing_savings_frames']} frames")
    comparison = storm_ab["comparison"]
    print(f"  sharing saved {comparison['peak_frames_saved']} peak frames,"
          f" avoided {comparison['pressure_events_avoided']} pressure events"
          f" (wins: {comparison['sharing_wins']})")
    dispatch = doc["dispatch"]
    print(f"  hot path:   {dispatch['hot_path']['us_per_packet']} us/pkt"
          f" ({dispatch['hot_path']['packets_per_second']:,} pps)")
    print(f"  stray path: {dispatch['stray_path']['us_per_packet']} us/pkt"
          f" ({dispatch['stray_path']['packets_per_second']:,} pps)")
    storm = doc["packet_storm"]
    print(f"  storm:      {storm['trace_packets']} pkts /"
          f" {storm['events_processed']} events in {storm['wall_seconds']}s"
          f" ({storm['events_per_second']:,} events/s,"
          f" {storm['heap_compactions']} compactions)")

    heap_doc = {
        "config": {"smoke": args.smoke, "seed": HEAP_SEED},
        **bench_heap(args.smoke),
    }
    heap_out = REPORT_DIR / "BENCH_heap.json"
    heap_out.write_text(json.dumps(heap_doc, indent=2) + "\n")
    print(f"wrote {heap_out}")
    leaked = []
    for name, __, quotient in HEAP_STORMS:
        row = heap_doc[name]
        print(f"  {name}: {row[quotient]} {quotient.replace('_', ' ')},"
              f" {row['bytes_held_after_drain']} bytes held after drain"
              f" ({row['clones_completed']} clones, {row['packets']} packets)")
        leaked += [
            f"{name}: {count} {kind} alive after drain"
            for kind, count in row["retained_after_drain"].items()
            if count and kind in ("VirtualMachine", "FlowRecord")
        ]
    for line in leaked:
        print(f"HEAP GATE FAILED: {line}", file=sys.stderr)
    if leaked:
        return 1

    if not args.skip_sweeps:
        import sweep_runner

        sweeps_out = sweep_runner.write_sweeps(
            smoke=args.smoke, workers=args.workers
        )
        print(f"wrote {sweeps_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
