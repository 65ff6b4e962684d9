"""Experiment T1 — flash-clone latency breakdown (the paper's Table 1).

Regenerates the per-stage latency table for flash cloning and compares
against the two instantiation baselines:

* full-copy cloning (A-ABL1): same pipeline, memory copied eagerly;
* boot-from-scratch (dedicated baseline): cold guest boot.

Expected shape (paper): flash clone completes in ~0.5 s, dominated by
management-toolstack overhead rather than memory work; full copy adds a
memcpy of the whole image; cold boot is two orders of magnitude slower.

The pytest-benchmark timing measures the *simulator's* wall-clock cost of
executing the clone pipeline; the reproduced table reports the simulated
latencies that correspond to the paper's measurements.
"""

from __future__ import annotations

import statistics

from conftest import register_report

from repro.analysis.report import format_table
from repro.core.flash_clone import FlashCloneEngine
from repro.net.addr import IPAddress
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStream
from repro.vmm.host import PhysicalHost
from repro.vmm.latency import CloneCostModel
from repro.vmm.snapshot import ReferenceSnapshot

CLONES = 200
BASE_IP = IPAddress.parse("10.16.0.1")


def run_mode(mode: str, clones: int = CLONES):
    """Clone `clones` VMs under `mode`, returning (engine, sim)."""
    sim = Simulator()
    host = PhysicalHost(0, memory_bytes=64 << 30, max_vms=100_000)
    snapshot = ReferenceSnapshot(host.memory, image_bytes=128 << 20)
    host.install_snapshot(snapshot)
    engine = FlashCloneEngine(
        sim,
        CloneCostModel(jitter=0.05, rng=RandomStream(7)),
        mode=mode,
    )
    for i in range(clones):
        vm = engine.clone(host, snapshot, IPAddress(BASE_IP + i))
        sim.run()  # complete each clone before reusing the address space pool
        host.evict(vm, sim.now)
    return engine


def test_clone_latency_breakdown(benchmark):
    engine = benchmark.pedantic(lambda: run_mode("flash"), rounds=1, iterations=1)

    breakdown = engine.stage_breakdown_ms()
    rows = [[stage, f"{ms:.1f}"] for stage, ms in breakdown.items()]
    rows.append(["TOTAL (mean)", f"{engine.mean_latency_seconds() * 1000:.1f}"])
    hist = engine.metrics.histogram("clone.latency_seconds")
    rows.append(["p50 total", f"{hist.percentile(50) * 1000:.1f}"])
    rows.append(["p99 total", f"{hist.percentile(99) * 1000:.1f}"])
    report = format_table(
        ["stage", "latency (ms)"], rows,
        title=f"T1: flash-clone latency breakdown ({CLONES} clones)",
    )
    register_report("T1_clone_latency_breakdown", report)

    total_ms = engine.mean_latency_seconds() * 1000
    assert 450 < total_ms < 600, "flash clone should land near the paper's ~521 ms"
    assert max(breakdown, key=breakdown.get) == "toolstack"


def test_clone_latency_vs_baselines(benchmark):
    def run_all():
        return {mode: run_mode(mode, clones=30) for mode in ("flash", "full-copy", "boot")}

    engines = benchmark.pedantic(run_all, rounds=1, iterations=1)
    means = {mode: engine.mean_latency_seconds() for mode, engine in engines.items()}
    rows = [
        ["flash clone (Potemkin)", f"{means['flash'] * 1000:.0f}", "1.0x"],
        ["full-copy clone (A-ABL1)", f"{means['full-copy'] * 1000:.0f}",
         f"{means['full-copy'] / means['flash']:.1f}x"],
        ["boot from scratch (dedicated)", f"{means['boot'] * 1000:.0f}",
         f"{means['boot'] / means['flash']:.1f}x"],
    ]
    report = format_table(
        ["instantiation mode", "mean latency (ms)", "vs flash"],
        rows, title="T1b: instantiation latency across modes",
    )
    register_report("T1b_instantiation_modes", report)

    assert means["flash"] < means["full-copy"] < means["boot"]
    assert means["boot"] / means["flash"] > 50  # orders-of-magnitude claim
