"""The scripted harness: one table of sections, one report each.

The paper's tables are the pytest-benchmark modules next to this file,
and the only speed numbers anyone may quote come from ``benchmarks/e2e``
(``BENCHMARK.json``). What is left is scripted and gated, and lives here
as sections. Each is a ``run(smoke, workers) -> doc`` that builds the
JSON report and a ``failures(doc) -> list[str]`` that is its gate:

* ``memory`` — the content-sharing A/B: one fixed-seed worm storm on a
  memory-constrained host, shared-frame store on and off (peak resident
  frames, pressure events and evictions, frames sharing saved). No gate.
* ``heap`` — what the process holds: the end-to-end benchmark's
  ``vm_churn`` and ``mixed_storm`` storms under ``tracemalloc``, bytes
  per live VM / per live flow at the busiest simulated second, bytes
  still held once the farm has drained. **Fails** if a
  ``VirtualMachine`` or ``FlowRecord`` outlives the drain: host memory
  follows the live farm.
* ``sweeps`` — the two grid-shaped experiments: F-CONC (exact
  concurrency-vs-idle-timeout curves from one telescope trace) and
  A-ABL2 (one farm run per memory-pressure threshold on a small host).
  No gate.
* ``chaos`` — recovery across crash rate x repair delay on the chaos
  drill scenario (docs/FAULTS.md). **Fails** if any point's packet
  ledger leaks.
* ``fidelity`` — a /16 storm, fidelity ladder vs clone-always
  (docs/FIDELITY.md). **Fails** unless the ladder serves >= 90% of flows
  without a clone, captures the same infections, and peaks below
  clone-always in frames.
* ``adversary`` — fingerprinting scanners and a botnet against the farm
  with deception off and on (docs/ADVERSARIES.md). **Fails** unless
  deception strictly raises fingerprint-tier captures at equal seeds,
  the per-tier verdicts hold, and two runs digest identically.

Grid points are pure functions of their inputs (fixed seeds, each worker
builds its own ``Simulator``), so :func:`grid` fans them out over one
ordered ``Pool.map`` with bit-identical results for any ``--workers``.

Run::

    PYTHONPATH=src python benchmarks/perf_harness.py [--smoke] [--workers N] [--only NAME]

Each section writes ``benchmarks/reports/BENCH_<name>.json``; the exit
code is non-zero if any section's gate fails. ``--smoke`` shrinks every
section so CI finishes in seconds; the JSON shape is identical.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import multiprocessing
import os
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# The heap section measures the end-to-end benchmark's own storms.
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads as e2e_workloads

from repro.adversary import (
    FINGERPRINT_TIERS,
    experiment_digest,
    run_adversary_experiment,
)
from repro.analysis.concurrency import sweep_timeouts
from repro.analysis.recovery import packet_ledger, recovery_report
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.faults import FaultPlan, host_crash
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import TcpFlags, tcp_packet, udp_packet
from repro.obs import FlightRecorder, install, uninstall
from repro.testing.scenario import Scenario
from repro.testing.worlds import COOLDOWN_SECONDS, IN_FARM_SCAN_RATE
from repro.vmm.memory import PAGE_SIZE
from repro.workloads.scenarios import chaos_drill_scenario
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm
from repro.workloads.worms import KNOWN_WORMS

REPORT_DIR = Path(__file__).resolve().parent / "reports"

Doc = Dict[str, Any]


def grid(point: Callable[[Any], Doc], points: Sequence[Any], workers: int) -> List[Doc]:
    """``[point(p) for p in points]``, fanned out over ``workers``
    processes. ``point`` must be module-level (picklable) and
    self-contained; ``Pool.map`` returns in submission order, so the
    result is the same list whichever process ran which point."""
    if workers > 1 and len(points) > 1:
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=min(workers, len(points))) as pool:
            return pool.map(point, points, chunksize=1)
    return [point(p) for p in points]


def no_gate(doc: Doc) -> List[str]:
    return []


# ---------------------------------------------------------------------- #
# memory: content sharing on vs off under one worm storm
# ---------------------------------------------------------------------- #

MEMORY_VICTIMS = 120
MEMORY_VICTIMS_SMOKE = 40
MEMORY_DURATION = 30.0
MEMORY_DURATION_SMOKE = 10.0


def _memory_storm(victims: int, duration: float, content_sharing: bool) -> Doc:
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


def run_memory(smoke: bool, workers: int) -> Doc:
    victims = MEMORY_VICTIMS_SMOKE if smoke else MEMORY_VICTIMS
    duration = MEMORY_DURATION_SMOKE if smoke else MEMORY_DURATION
    on = _memory_storm(victims, duration, content_sharing=True)
    off = _memory_storm(victims, duration, content_sharing=False)
    return {
        "config": {"smoke": smoke},
        "worm_storm": {
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
        },
    }


# ---------------------------------------------------------------------- #
# heap: what the process holds, and the leak gate
# ---------------------------------------------------------------------- #

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


def heap_profile(name: str, size: str, per: str, quotient: str) -> Doc:
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


def run_heap(smoke: bool, workers: int) -> Doc:
    size = "smoke" if smoke else "bench"
    return {
        "config": {"smoke": smoke, "seed": HEAP_SEED},
        **{
            name: heap_profile(name, size, per, quotient)
            for name, per, quotient in HEAP_STORMS
        },
    }


def heap_failures(doc: Doc) -> List[str]:
    return [
        f"{name}: {count} {kind} alive after drain"
        for name, __, __ in HEAP_STORMS
        for kind, count in doc[name]["retained_after_drain"].items()
        if count and kind in ("VirtualMachine", "FlowRecord")
    ]


# ---------------------------------------------------------------------- #
# sweeps: F-CONC timeout curve and A-ABL2 reclamation ablation
# ---------------------------------------------------------------------- #

# F-CONC grid (matches bench_concurrency_vs_timeout.py).
CONC_PREFIX = "10.16.0.0/16"
CONC_SEED = 202
CONC_TIMEOUTS = [1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0]
CONC_DURATION = 600.0
CONC_DURATION_SMOKE = 60.0

# A-ABL2 grid (policy axis extends bench_reclamation_policies.py).
ABL_SEED = 27
ABL_THRESHOLDS: List[Optional[float]] = [None, 0.7, 0.85, 0.95]
ABL_DURATION = 30.0
ABL_DURATION_SMOKE = 10.0
ABL_ADDRESSES = 256
ABL_ADDRESSES_SMOKE = 96


def concurrency_sweep(duration: float, workers: int) -> List[Doc]:
    """Concurrency curve points for the /16 telescope trace."""
    workload = TelescopeWorkload(
        [Prefix.parse(CONC_PREFIX)], TelescopeConfig(seed=CONC_SEED)
    )
    records = workload.generate(duration)
    results = sweep_timeouts(records, CONC_TIMEOUTS, workers=workers)
    return [
        {
            "idle_timeout_seconds": r.timeout,
            "peak_vms": r.peak_vms,
            "mean_vms": round(r.mean_vms, 4),
            "vm_instantiations": r.vm_instantiations,
            "trace_packets": len(records),
        }
        for r in results
    ]


def reclamation_point(args: Tuple[Optional[float], float, int]) -> Doc:
    """Grid point: a fresh seeded farm on a deliberately small host at one
    memory-pressure threshold, a SYN + four data segments per address."""
    threshold, duration, addresses = args
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",),
        num_hosts=1,
        host_memory_bytes=264 << 20,
        max_vms_per_host=4096,
        idle_timeout_seconds=3600.0,   # fidelity-first idle policy
        memory_pressure_threshold=threshold,
        sweep_interval_seconds=0.5,
        clone_jitter=0.0,
        seed=ABL_SEED,
    ))
    attacker = IPAddress.parse("203.0.113.200")
    base = IPAddress.parse("10.16.0.0").value
    psh_ack = TcpFlags.PSH | TcpFlags.ACK
    for i in range(addresses):
        dst = IPAddress(base + i)
        t = 0.02 * i
        farm.sim.schedule_at(t, farm.inject, tcp_packet(attacker, dst, 1024 + i, 445))
        for j in range(4):
            farm.sim.schedule_at(
                t + 0.6 + 0.1 * j, farm.inject,
                tcp_packet(attacker, dst, 1024 + i, 445,
                           flags=psh_ack, payload=f"req-{j}"),
            )
    farm.run(until=duration)
    counters = farm.metrics.counters()
    host = farm.hosts[0]
    return {
        "policy": "idle-only" if threshold is None else f"idle+pressure@{threshold:g}",
        "pressure_threshold": threshold,
        "reactive_oom_evictions": counters.get("farm.pressure_evictions", 0),
        "proactive_sweep_reclaims": counters.get("farm.sweep_reclaims", 0),
        "capacity_drops": counters.get("gateway.no_capacity_drop", 0),
        "peak_memory_utilization": round(
            host.memory.peak_allocated_frames / host.memory.capacity_frames, 4
        ),
        "live_vms": farm.live_vms,
        "events_processed": farm.sim.events_processed,
    }


def run_sweeps(smoke: bool, workers: int) -> Doc:
    conc_duration = CONC_DURATION_SMOKE if smoke else CONC_DURATION
    abl_duration = ABL_DURATION_SMOKE if smoke else ABL_DURATION
    abl_addresses = ABL_ADDRESSES_SMOKE if smoke else ABL_ADDRESSES

    t0 = time.perf_counter()
    concurrency = concurrency_sweep(conc_duration, workers)
    conc_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    reclamation = grid(
        reclamation_point,
        [(t, abl_duration, abl_addresses) for t in ABL_THRESHOLDS],
        workers,
    )
    abl_wall = time.perf_counter() - t0

    return {
        "config": {
            "smoke": smoke,
            "workers": workers,
            "concurrency": {
                "prefix": CONC_PREFIX,
                "seed": CONC_SEED,
                "duration_seconds": conc_duration,
                "timeouts": CONC_TIMEOUTS,
            },
            "reclamation": {
                "seed": ABL_SEED,
                "duration_seconds": abl_duration,
                "addresses": abl_addresses,
                "thresholds": ABL_THRESHOLDS,
            },
        },
        "concurrency_vs_timeout": concurrency,
        "reclamation_policies": reclamation,
        "wall_seconds": {
            "concurrency_sweep": round(conc_wall, 3),
            "reclamation_sweep": round(abl_wall, 3),
        },
    }


# ---------------------------------------------------------------------- #
# chaos: recovery across crash rate x repair delay
# ---------------------------------------------------------------------- #

CRASH_PERIODS = [30.0, 60.0, 120.0]
REPAIR_DELAYS = [5.0, 15.0, 30.0]
CHAOS_DURATION = 240.0
CRASH_PERIODS_SMOKE = [20.0]
REPAIR_DELAYS_SMOKE = [5.0, 10.0]
CHAOS_DURATION_SMOKE = 60.0
FIRST_CRASH_AT = 20.0  # past the epidemic's arrival at the farm
PLAN_SEED = 7
FARM_SEED = 42


def chaos_point(args: Tuple[float, float, float]) -> Doc:
    """Grid point: the chaos drill (a two-host farm under a codered
    outbreak) at one (crash_every, repair_delay, duration). The recurring
    crash targets a random up host each period so both hosts take hits."""
    crash_every, repair_delay, duration = args
    plan = FaultPlan(
        events=(
            host_crash(at=FIRST_CRASH_AT, host="0", repair_after=repair_delay),
            host_crash(
                every=crash_every, host="random", repair_after=repair_delay,
            ),
        ),
        seed=PLAN_SEED,
    )
    farm, outbreak, controller = chaos_drill_scenario(plan=plan, seed=FARM_SEED)
    outbreak.start()
    controller.start()
    farm.run(until=duration)
    report = recovery_report(farm, controller)
    mttrs = [o.mttr for o in report.outcomes if o.mttr is not None]
    counters = farm.metrics.counters()
    return {
        "crash_every_seconds": crash_every,
        "repair_delay_seconds": repair_delay,
        "faults_fired": controller.faults_fired,
        "crashes": counters.get("farm.host_crashes", 0),
        "repairs": counters.get("farm.host_repairs", 0),
        "vms_lost": sum(
            r.detail.get("vms_lost", 0) for r in controller.records if not r.skipped
        ),
        "respawns": counters.get("farm.respawns", 0),
        "respawn_retries": counters.get("farm.respawn_retries", 0),
        "respawns_abandoned": counters.get("farm.respawns_abandoned", 0),
        "mean_mttr_seconds": round(sum(mttrs) / len(mttrs), 4) if mttrs else None,
        "unrecovered_crashes": sum(1 for o in report.outcomes if o.mttr is None),
        "min_live_vms": min((o.min_live for o in report.outcomes), default=0),
        "packets_in": report.ledger.packets_in,
        "packets_dropped_by_cause": report.ledger.dropped_by_cause,
        "packets_leaked": report.ledger.leaked,
        "infections": counters.get("farm.infections", 0),
        "events_processed": farm.sim.events_processed,
    }


def run_chaos(smoke: bool, workers: int) -> Doc:
    crash_periods = CRASH_PERIODS_SMOKE if smoke else CRASH_PERIODS
    repair_delays = REPAIR_DELAYS_SMOKE if smoke else REPAIR_DELAYS
    duration = CHAOS_DURATION_SMOKE if smoke else CHAOS_DURATION

    t0 = time.perf_counter()
    points = grid(
        chaos_point,
        [
            (crash_every, repair_delay, duration)
            for crash_every in crash_periods
            for repair_delay in repair_delays
        ],
        workers,
    )
    wall = time.perf_counter() - t0
    return {
        "config": {
            "smoke": smoke,
            "workers": workers,
            "crash_periods": crash_periods,
            "repair_delays": repair_delays,
            "duration_seconds": duration,
            "plan_seed": PLAN_SEED,
            "farm_seed": FARM_SEED,
        },
        "points": points,
        "total_leaked": sum(p["packets_leaked"] for p in points),
        "wall_seconds": round(wall, 3),
    }


def chaos_failures(doc: Doc) -> List[str]:
    if doc["total_leaked"]:
        return [f"packet ledger leaked {doc['total_leaked']} packets"]
    return []


# ---------------------------------------------------------------------- #
# fidelity: a /16 storm, ladder vs clone-always
# ---------------------------------------------------------------------- #

FIDELITY_SEED = 160591

#: One frame budget to express both arms in the same sizing currency:
#: how many addresses could a 16 GiB host cover at this fidelity?
BUDGET_FRAMES = (16 << 30) // 4096


def fidelity_scenario(smoke: bool) -> Scenario:
    """The seeded /16 telescope storm both arms replay.

    Telescope radiation is overwhelmingly single-probe scans; 5% of
    sources carry live exploits, which is what makes "capture the same
    infections with far fewer VMs" a non-vacuous claim.
    """
    if smoke:
        return Scenario(
            seed=FIDELITY_SEED, prefix_bits=16, duration=30.0,
            telescope_rate=6.0, exploit_fraction=0.05,
            max_packets=800, containment="drop-all", vm_image_mb=4,
        )
    return Scenario(
        seed=FIDELITY_SEED, prefix_bits=16, duration=120.0,
        telescope_rate=8.0, exploit_fraction=0.05,
        max_packets=4000, containment="drop-all", vm_image_mb=4,
    )


def trace_flows(trace) -> Set[Tuple[str, str, int, int, int]]:
    """Distinct flows in the storm, keyed like the gateway's flow table."""
    return {
        (r.src, r.dst, r.protocol, r.src_port, r.dst_port) for r in trace
    }


def fidelity_arm(scenario: Scenario, trace, flows, ladder: bool) -> Doc:
    """One arm: the ladder's emulator tier answering the scan tail, or
    (``ladder=False``) a VM cloned for every touched address. ``flows``
    is ``trace_flows(trace)``."""
    farm = Honeyfarm(scenario.farm_config(ladder=ladder))
    dns = farm.config.dns_address()
    for worm in KNOWN_WORMS.values():
        throttled = worm.with_scan_rate(min(worm.scan_rate, IN_FARM_SCAN_RATE))
        farm.register_worm(throttled.behavior(dns))

    recorder = FlightRecorder(capacity=2_000_000)
    install(recorder)
    t0 = time.perf_counter()
    try:
        replay_into_farm(farm, trace)
        farm.run(until=scenario.duration + COOLDOWN_SECONDS)
    finally:
        uninstall()
    wall = time.perf_counter() - t0

    # Exact flow accounting: a flow was served without a clone iff its
    # destination address never had a VM bound at any point in the run.
    vm_addresses = {
        fields["ip"]
        for __, __, sub, ev, fields in recorder.events
        if sub == "farm" and ev == "vm_spawned"
    }
    flows_without_clone = sum(1 for f in flows if f[1] not in vm_addresses)

    counters = farm.metrics.counters()
    ledger = packet_ledger(farm)
    peak_frames = sum(h.memory.peak_allocated_frames for h in farm.hosts)
    return {
        "arm": "ladder" if ladder else "clone-always",
        "peak_frames": peak_frames,
        "peak_bytes": peak_frames * 4096,
        "vms_spawned": counters.get("farm.vms_spawned", 0),
        "addresses_cloned": len(vm_addresses),
        "infections": sorted(
            (str(r.victim), r.worm_name, r.generation) for r in farm.infections
        ),
        "flows_total": len(flows),
        "flows_without_clone": flows_without_clone,
        "flows_without_clone_fraction": round(
            flows_without_clone / len(flows), 4
        ) if flows else None,
        "packets_emulated": counters.get("gateway.emulated", 0),
        "promotions": counters.get("ladder.promotions", 0),
        "promotions_by_trigger": {
            key.rsplit(".", 1)[1]: value
            for key, value in counters.items()
            if key.startswith("ladder.promotions.")
        },
        "handoff_packets_replayed": counters.get(
            "ladder.handoff_packets_replayed", 0
        ),
        "packets_in": ledger.packets_in,
        "packets_leaked": ledger.leaked,
        # Sizing extrapolation: addresses one BUDGET_FRAMES host covers
        # at this arm's measured frames-per-address rate.
        "coverable_addresses": (
            int(BUDGET_FRAMES * scenario.address_count / peak_frames)
            if peak_frames else None
        ),
        "wall_seconds": round(wall, 3),
    }


def fidelity_criteria(ladder: Doc, clone: Doc) -> List[str]:
    failures: List[str] = []
    fraction = ladder["flows_without_clone_fraction"] or 0.0
    if fraction < 0.90:
        failures.append(
            f"ladder served only {fraction:.1%} of flows without a clone"
            " (needs >= 90%)"
        )
    if ladder["infections"] != clone["infections"]:
        failures.append(
            f"captured infections diverged: ladder={len(ladder['infections'])}"
            f" clone-always={len(clone['infections'])}"
        )
    if ladder["peak_frames"] >= clone["peak_frames"]:
        failures.append(
            f"ladder peak frames {ladder['peak_frames']} not below"
            f" clone-always {clone['peak_frames']}"
        )
    for arm in (ladder, clone):
        if arm["packets_leaked"]:
            failures.append(f"{arm['arm']} arm leaked {arm['packets_leaked']} packets")
    return failures


def run_fidelity(smoke: bool, workers: int) -> Doc:
    scenario = fidelity_scenario(smoke)
    trace = scenario.build_trace()
    flows = trace_flows(trace)
    ladder = fidelity_arm(scenario, trace, flows, ladder=True)
    clone = fidelity_arm(scenario, trace, flows, ladder=False)
    failures = fidelity_criteria(ladder, clone)
    # The infection lists prove equality; the report only needs counts.
    for arm in (ladder, clone):
        arm["infections"] = len(arm["infections"])
    return {
        "config": {
            "smoke": smoke,
            "seed": FIDELITY_SEED,
            "prefix": scenario.prefix,
            "duration_seconds": scenario.duration,
            "trace_packets": len(trace),
            "trace_flows": len(flows),
            "exploit_fraction": scenario.exploit_fraction,
            "budget_frames": BUDGET_FRAMES,
        },
        "arms": {"ladder": ladder, "clone_always": clone},
        "frame_reduction": (
            round(1.0 - ladder["peak_frames"] / clone["peak_frames"], 4)
            if clone["peak_frames"] else None
        ),
        "coverage_gain": (
            round(
                ladder["coverable_addresses"] / clone["coverable_addresses"], 2
            )
            if clone["coverable_addresses"] else None
        ),
        "infections_captured": ladder["infections"],
        "failures": failures,
        "passed": not failures,
    }


def recorded_failures(doc: Doc) -> List[str]:
    """The gate of a section whose criteria need more than the report
    keeps (full infection lists, a second run): ``run`` judged them and
    recorded the verdict."""
    return doc["failures"]


# ---------------------------------------------------------------------- #
# adversary: fingerprinting attackers vs deception
# ---------------------------------------------------------------------- #

ADVERSARY_SEED = 20260809
ADVERSARY_TIERS = (0, 1, 2, 3)


def adversary_criteria(result: Doc) -> List[str]:
    failures: List[str] = []
    off, on = result["arms"]["off"], result["arms"]["on"]

    # Without deception a fingerprinting scanner (tier >= 2) reads the
    # farm's monoculture and machine-identical reply timing and aborts
    # before committing malware; with it the passive tells vanish.
    fp_off = off["fingerprint_captures"]
    fp_on = on["fingerprint_captures"]
    if not fp_on > fp_off:
        failures.append(
            f"deception did not raise fingerprint-tier captures:"
            f" on={fp_on} vs off={fp_off} (must be strictly higher)"
        )

    for tier in FINGERPRINT_TIERS:
        scanner = off["scanners"][str(tier)]
        if scanner["verdict"] != "aborted" or scanner["abort_stage"] != "recon":
            failures.append(
                f"deception-off tier-{tier} scanner should abort at recon,"
                f" got {scanner['verdict']}/{scanner['abort_stage']}"
            )
    tier2_on = on["scanners"]["2"]
    if tier2_on["verdict"] != "completed":
        failures.append(
            f"deception-on tier-2 scanner should complete, got"
            f" {tier2_on['verdict']} at {tier2_on['abort_stage']}"
        )
    # Deception must not open containment to win believability.
    tier3_on = on["scanners"]["3"]
    if tier3_on["abort_stage"] != "echo":
        failures.append(
            "deception-on tier-3 scanner should still catch the"
            f" containment echo under reflect, got {tier3_on['verdict']}/"
            f"{tier3_on['abort_stage']}"
        )

    for arm_key, arm in result["arms"].items():
        for tier, scanner in arm["scanners"].items():
            if scanner["verdict"] is None:
                failures.append(
                    f"{arm_key} tier-{tier} scanner has no terminal verdict"
                )
        if "botnet" in arm and arm["botnet"]["verdict"] is None:
            failures.append(f"{arm_key} botnet has no terminal verdict")
    return failures


def run_adversary(smoke: bool, workers: int) -> Doc:
    duration = 12.0 if smoke else 20.0
    num_targets = 6 if smoke else 8

    t0 = time.perf_counter()
    first, second = (
        run_adversary_experiment(
            seed=ADVERSARY_SEED, tiers=ADVERSARY_TIERS, duration=duration,
            num_targets=num_targets,
        )
        for __ in range(2)
    )
    wall = time.perf_counter() - t0
    digest = experiment_digest(first)
    failures = adversary_criteria(first)
    if digest != experiment_digest(second):
        failures.append("experiment is not deterministic at equal seeds")

    return {
        "config": {
            "smoke": smoke,
            "seed": ADVERSARY_SEED,
            "duration_seconds": duration,
            "num_targets": num_targets,
            "tiers": list(ADVERSARY_TIERS),
            "fingerprint_tiers": list(FINGERPRINT_TIERS),
            "containment": first["containment"],
        },
        "arms": first["arms"],
        "headline": first["headline"],
        "digest": digest,
        "failures": failures,
        "passed": not failures,
        "wall_seconds": round(wall, 3),
    }


# ---------------------------------------------------------------------- #
# The section table and the one entry point
# ---------------------------------------------------------------------- #

#: name -> (run, failures); the report is ``BENCH_<name>.json``.
SECTIONS: Dict[str, Tuple[Callable[[bool, int], Doc], Callable[[Doc], List[str]]]] = {
    "memory": (run_memory, no_gate),
    "heap": (run_heap, heap_failures),
    "sweeps": (run_sweeps, no_gate),
    "chaos": (run_chaos, chaos_failures),
    "fidelity": (run_fidelity, recorded_failures),
    "adversary": (run_adversary, recorded_failures),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (seconds, not minutes)")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="pool size for the grids (default: all cores)")
    parser.add_argument("--only", choices=list(SECTIONS), metavar="NAME",
                        help=f"run one section: {', '.join(SECTIONS)}")
    args = parser.parse_args(argv)

    REPORT_DIR.mkdir(exist_ok=True)
    failed = False
    for name in [args.only] if args.only else SECTIONS:
        run, failures = SECTIONS[name]
        t0 = time.perf_counter()
        doc = run(args.smoke, args.workers)
        out = REPORT_DIR / f"BENCH_{name}.json"
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out} ({time.perf_counter() - t0:.1f}s)")
        for line in failures(doc):
            failed = True
            print(f"GATE FAILED [{name}]: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
