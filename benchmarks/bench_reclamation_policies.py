"""Experiment A-ABL2 — reclamation policy ablation under memory pressure.

DESIGN.md calls out the reclamation design choice: with a fidelity-first
idle timeout (an hour), a burst of traffic fills a small host's memory.
The farm survives either way — OOM page faults trigger *reactive* LRU
eviction as a backstop — but the **proactive memory-pressure policy**
reclaims ahead of exhaustion, so guests never hit the OOM path at all.

Setup: a 264 MiB host (128 MiB reference image + ~136 MiB headroom,
which ~170 one-MiB working sets overflow) receives a burst across a /24.
Compared: idle-only versus idle + pressure (threshold 0.85). Metrics:
reactive OOM evictions, proactive sweep reclamations, peak memory.
"""

from __future__ import annotations

from conftest import register_report

from repro.analysis.report import format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import TcpFlags, tcp_packet

ATTACKER = IPAddress.parse("203.0.113.200")
BASE = IPAddress.parse("10.16.0.0")
ADDRESSES = 256


def run_farm(pressure_threshold):
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",),
        num_hosts=1,
        host_memory_bytes=264 << 20,
        max_vms_per_host=4096,
        idle_timeout_seconds=3600.0,   # fidelity-first idle policy
        memory_pressure_threshold=pressure_threshold,
        sweep_interval_seconds=0.5,
        clone_jitter=0.0,
        seed=27,
    ))
    # A burst touching every address, each then served data requests so
    # guests dirty full working sets (~0.8 MiB each plus connections).
    for i in range(ADDRESSES):
        dst = IPAddress(BASE + i)
        t = 0.02 * i
        farm.sim.schedule_at(t, farm.inject, tcp_packet(ATTACKER, dst, 1024 + i, 445))
        for j in range(4):
            farm.sim.schedule_at(
                t + 0.6 + 0.1 * j, farm.inject,
                tcp_packet(ATTACKER, dst, 1024 + i, 445,
                           flags=TcpFlags.PSH | TcpFlags.ACK, payload=f"req-{j}"),
            )
    farm.run(until=30.0)
    return farm


def test_reclamation_policy_ablation(benchmark):
    farms = benchmark.pedantic(
        lambda: {
            "idle-only (1h)": run_farm(None),
            "idle + pressure LRU": run_farm(0.85),
        },
        rounds=1, iterations=1,
    )

    rows = []
    outcomes = {}
    for name, farm in farms.items():
        counters = farm.metrics.counters()
        host = farm.hosts[0]
        outcome = {
            "reactive": counters.get("farm.pressure_evictions", 0),
            "proactive": counters.get("farm.sweep_reclaims", 0),
            "drops": counters.get("gateway.no_capacity_drop", 0),
            "peak_util": host.memory.peak_allocated_frames
            / host.memory.capacity_frames,
            "live": farm.live_vms,
        }
        outcomes[name] = outcome
        rows.append([
            name, outcome["reactive"], outcome["proactive"], outcome["drops"],
            f"{outcome['peak_util'] * 100:.0f}%", outcome["live"],
        ])

    report = format_table(
        ["policy", "reactive OOM evictions", "proactive reclaims",
         "capacity drops", "peak mem", "live VMs"],
        rows,
        title="A-ABL2: /24 burst on a 264 MiB host, 1h idle timeout",
    )
    register_report("A-ABL2_reclamation_ablation", report)

    idle_only = outcomes["idle-only (1h)"]
    with_pressure = outcomes["idle + pressure LRU"]
    # Without the pressure policy the host runs to the OOM backstop.
    assert idle_only["reactive"] > 0
    assert idle_only["proactive"] == 0
    # With it, reclamation happens proactively and OOM events shrink.
    assert with_pressure["proactive"] > 0
    assert with_pressure["reactive"] < idle_only["reactive"]
    # Both stay within physical memory (the farm never overcommits).
    for outcome in outcomes.values():
        assert outcome["peak_util"] <= 1.0
