"""Experiment F-MEM — delta-virtualization memory economics.

The paper's memory result: a flash-cloned honeypot's *marginal* physical
footprint is the handful of MB it dirties, not its 128 MiB image — so a
2 GiB server holds on the order of a hundred concurrent VMs (116
demonstrated), where full-copy clones would cap out around fifteen.

This bench drives a live farm with scan traffic until a large VM
population exists, then reports the private-footprint distribution, the
farm-wide breakdown, VMs-per-host capacity estimates, and the full-copy
ablation (A-ABL1) side by side.
"""

from __future__ import annotations

from conftest import register_report

from repro.analysis.memory_stats import footprint_summary, vms_per_host_estimate
from repro.analysis.report import format_table
from repro.baselines.dedicated import dedicated_vms_per_host
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import TcpFlags, tcp_packet, udp_packet

HOST_BYTES = 2 << 30
IMAGE_BYTES = 128 << 20
VM_TARGET = 150

CONFIG = HoneyfarmConfig(
    prefixes=("10.16.0.0/24",),
    num_hosts=1,
    host_memory_bytes=HOST_BYTES,
    idle_timeout_seconds=3600.0,  # hold the population for measurement
    memory_pressure_threshold=0.98,
    clone_jitter=0.0,
    seed=33,
)

ATTACKER = IPAddress.parse("203.0.113.70")
BASE = IPAddress.parse("10.16.0.1")


def populate(farm: Honeyfarm, count: int) -> None:
    """Touch `count` addresses with realistic probe mixes so guests build
    working sets (some get exploited and dirty a worm body too)."""
    for i in range(count):
        dst = IPAddress(BASE + i)
        t = 0.05 * i
        farm.sim.schedule_at(t, farm.inject, tcp_packet(ATTACKER, dst, 1024 + i, 445))
        if i % 3 == 0:
            farm.sim.schedule_at(
                t + 0.7, farm.inject,
                tcp_packet(ATTACKER, dst, 1024 + i, 445,
                           flags=TcpFlags.PSH | TcpFlags.ACK, payload="smb-probe"),
            )
        if i % 7 == 0:
            farm.sim.schedule_at(
                t + 0.9, farm.inject,
                udp_packet(ATTACKER, dst, 1024 + i, 1434, payload="exploit:slammer"),
            )
    farm.run(until=0.05 * count + 10.0)


def run_delta_farm():
    farm = Honeyfarm(CONFIG)
    populate(farm, VM_TARGET)
    return farm


def test_delta_virtualization_memory_economics(benchmark):
    farm = benchmark.pedantic(run_delta_farm, rounds=1, iterations=1)

    host = farm.hosts[0]
    vms = list(host.vms())
    summary = footprint_summary(vms)
    breakdown = farm.memory_breakdown()

    estimated_delta = vms_per_host_estimate(HOST_BYTES, IMAGE_BYTES, summary.mean)
    estimated_full = vms_per_host_estimate(HOST_BYTES, IMAGE_BYTES, summary.mean,
                                           full_copy=True)
    dedicated = dedicated_vms_per_host(HOST_BYTES, IMAGE_BYTES)

    rows = [
        ["concurrent VMs (measured)", breakdown.live_vms],
        ["reference image resident (MiB)", f"{breakdown.image_resident / 2**20:.0f}"],
        ["total private resident (MiB)", f"{breakdown.private_resident / 2**20:.1f}"],
        ["mean private/VM (MiB)", f"{summary.mean_mib:.2f}"],
        ["median private/VM (MiB)", f"{summary.median_mib:.2f}"],
        ["p99 private/VM (MiB)", f"{summary.p99 / 2**20:.2f}"],
        ["consolidation factor", f"{breakdown.consolidation_factor:.1f}x"],
        ["est. VMs/host (delta virt)", estimated_delta],
        ["est. VMs/host (full copy)", estimated_full],
        ["dedicated VMs/host (baseline)", dedicated],
    ]
    report = format_table(
        ["metric", "value"], rows,
        title="F-MEM: delta virtualization on a 2 GiB host (128 MiB guests)",
    )
    register_report("F-MEM_memory_economics", report)

    # Paper-shape assertions.
    assert breakdown.live_vms >= 116          # at least the demonstrated count
    assert summary.mean_mib < 8.0             # few-MB marginal footprint
    assert breakdown.consolidation_factor > 10.0
    assert estimated_delta > 100
    assert estimated_full < 20
    assert estimated_delta > 10 * estimated_full


def run_fullcopy_farm():
    farm = Honeyfarm(CONFIG.with_overrides(clone_mode="full-copy",
                                           memory_pressure_threshold=None))
    populate(farm, VM_TARGET)
    return farm


def test_full_copy_ablation_collapses_capacity(benchmark):
    """A-ABL1: the same workload without CoW sharing hits the memory wall
    after ~14 VMs and sheds the rest."""
    farm = benchmark.pedantic(run_fullcopy_farm, rounds=1, iterations=1)
    breakdown = farm.memory_breakdown()
    counters = farm.metrics.counters()

    rows = [
        ["concurrent VMs (measured)", breakdown.live_vms],
        ["admission failures (no memory)", counters.get("gateway.no_capacity_drop", 0)],
        ["consolidation factor", f"{breakdown.consolidation_factor:.2f}x"],
    ]
    report = format_table(
        ["metric", "value"], rows,
        title="A-ABL1: full-copy cloning on the same host and workload",
    )
    register_report("A-ABL1_full_copy_ablation", report)

    assert breakdown.live_vms <= 16
    assert counters.get("gateway.no_capacity_drop", 0) > 0
    assert breakdown.consolidation_factor < 1.5
