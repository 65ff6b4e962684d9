"""Experiment A-POOL (extension) — warm-pool VM binding latency.

The paper proposes hiding clone latency behind a pool of pre-created
VMs: a packet for a cold address then pays only the network identity
swap, not the whole toolstack pipeline. This bench measures
first-packet-to-VM-running latency under a bursty arrival pattern with
and without the pool, and checks the refill daemon keeps up.

Expected shape: pool binding is ~an order of magnitude faster than the
full pipeline (~60 ms vs ~520 ms); burst arrivals beyond pool depth
degrade gracefully to full clones (misses), and the pool recovers
between bursts.
"""

from __future__ import annotations

from conftest import register_report

from repro.analysis.report import format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet

ATTACKER = IPAddress.parse("203.0.113.5")
BASE = IPAddress.parse("10.16.0.1")
POOL_SIZE = 24
BURSTS = 6
BURST_VMS = 16
BURST_GAP = 10.0


def run_farm(pool_size: int):
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), num_hosts=2,
        warm_pool_size=pool_size, clone_jitter=0.05,
        idle_timeout_seconds=5.0, seed=66,
    ))
    farm.run(until=3.0)  # pool warm-up (no-op when disabled)
    index = 0
    for burst in range(BURSTS):
        start = farm.sim.now + burst * BURST_GAP
        for i in range(BURST_VMS):
            ip = IPAddress(BASE + index)
            index += 1
            farm.sim.schedule_at(start, farm.inject, tcp_packet(ATTACKER, ip, 1, 445))
    farm.run(until=3.0 + BURSTS * BURST_GAP + 5.0)
    return farm, farm.metrics.histogram("farm.address_ready_seconds")


def test_warm_pool_binding_latency(benchmark):
    results = benchmark.pedantic(
        lambda: {"no pool": run_farm(0), f"pool={POOL_SIZE}": run_farm(POOL_SIZE)},
        rounds=1, iterations=1,
    )

    rows = []
    for name, (farm, latencies) in results.items():
        counters = farm.metrics.counters()
        rows.append([
            name,
            f"{latencies.mean * 1000:.0f}",
            f"{latencies.percentile(50) * 1000:.0f}",
            f"{latencies.percentile(99) * 1000:.0f}",
            counters.get("farm.pool_hits", 0),
            counters.get("farm.pool_misses", 0),
        ])
    report = format_table(
        ["configuration", "mean ready (ms)", "p50 (ms)", "p99 (ms)",
         "pool hits", "pool misses"],
        rows,
        title=(
            f"A-POOL: first-packet-to-VM-running latency"
            f" ({BURSTS} bursts x {BURST_VMS} addresses)"
        ),
    )
    register_report("A-POOL_warm_pool", report)

    no_pool = results["no pool"][1]
    pooled = results[f"pool={POOL_SIZE}"][1]
    assert pooled.mean < no_pool.mean / 4     # order-of-magnitude-class win
    assert pooled.percentile(50) < 0.15        # identity swap, not pipeline
    pool_counters = results[f"pool={POOL_SIZE}"][0].metrics.counters()
    assert pool_counters["farm.pool_hits"] > pool_counters.get("farm.pool_misses", 0)
