"""Experiment A-PLACE (extension) — VM placement policy ablation.

The gateway steers each clone at a server; how it chooses affects burst
headroom.

Setup: 3 hosts under a flood across a /24 that fits the cluster with
room to spare. Every policy serves the whole flood; what differs is
*balance* — how evenly VMs and bytes land — which is exactly the burst
headroom left on the busiest host. Round-robin equalises counts,
least-loaded equalises bytes, packing concentrates everything until a
per-host limit forces a spill.
"""

from __future__ import annotations

from conftest import register_report

from repro.analysis.report import format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import TcpFlags, tcp_packet

POLICIES = ("least-loaded", "round-robin", "pack")
ATTACKER = IPAddress.parse("203.0.113.90")
BASE = IPAddress.parse("10.16.0.0")
FLOOD = 240


def run_policy(policy: str) -> Honeyfarm:
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), num_hosts=3,
        host_memory_bytes=300 << 20,   # 128 MiB image + ~172 MiB headroom
        max_vms_per_host=128,
        placement_policy=policy,
        idle_timeout_seconds=600.0,
        memory_pressure_threshold=None,  # expose raw placement behaviour
        clone_jitter=0.0, seed=21,
    ))
    for i in range(FLOOD):
        dst = IPAddress(BASE + i)
        t = 0.01 * i
        farm.sim.schedule_at(t, farm.inject, tcp_packet(ATTACKER, dst, 1000 + i, 445))
        farm.sim.schedule_at(t + 0.6, farm.inject, tcp_packet(
            ATTACKER, dst, 1000 + i, 445,
            flags=TcpFlags.PSH | TcpFlags.ACK, payload="probe",
        ))
    farm.run(until=15.0)
    return farm


def test_placement_policy_ablation(benchmark):
    farms = benchmark.pedantic(
        lambda: {p: run_policy(p) for p in POLICIES}, rounds=1, iterations=1
    )

    rows = []
    outcomes = {}
    for policy, farm in farms.items():
        counts = [host.live_vms for host in farm.hosts]
        utils = [host.memory_utilization for host in farm.hosts]
        drops = farm.metrics.counters().get("gateway.no_capacity_drop", 0)
        outcomes[policy] = {
            "counts": counts,
            "count_spread": max(counts) - min(counts),
            "util_spread": max(utils) - min(utils),
            "peak_util": max(utils),
            "drops": drops,
            "served": sum(counts),
        }
        rows.append([
            policy, "/".join(str(c) for c in counts),
            outcomes[policy]["count_spread"],
            f"{outcomes[policy]['util_spread'] * 100:.1f}%",
            f"{outcomes[policy]['peak_util'] * 100:.0f}%",
            sum(counts), drops,
        ])
    report = format_table(
        ["policy", "VMs per host", "VM spread", "mem spread", "peak mem",
         "served", "drops"],
        rows,
        title=f"A-PLACE: {FLOOD}-address flood on 3 x 300 MiB hosts",
    )
    register_report("A-PLACE_placement", report)

    # Everyone serves the flood — capacity is sufficient cluster-wide.
    for policy in POLICIES:
        assert outcomes[policy]["served"] == FLOOD
        assert outcomes[policy]["drops"] == 0
    # Balancing policies keep the busiest host far below packing's.
    assert outcomes["round-robin"]["count_spread"] == 0
    assert outcomes["pack"]["count_spread"] >= 100
    for policy in ("least-loaded", "round-robin"):
        assert outcomes[policy]["peak_util"] < outcomes["pack"]["peak_util"]
    # Least-loaded optimises bytes: its memory spread beats packing's.
    assert outcomes["least-loaded"]["util_spread"] < outcomes["pack"]["util_spread"]
