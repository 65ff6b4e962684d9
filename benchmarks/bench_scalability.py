"""Experiment F-SCALE — physical servers needed per covered /16.

The headline scalability comparison. For the reproduction's /16
background-radiation trace, compute how many physical servers each
architecture needs, combining both constraints the paper identifies:

* memory — peak concurrent VMs ÷ VMs-per-host;
* clone throughput — clone demand ÷ clones-per-second-per-host.

The dedicated baseline must keep a booted VM per *address* (recycling is
meaningless when instantiation costs 43 s), so its server count depends
only on address count — which is what produces the orders-of-magnitude
gap the paper's design closes.

A second sweep drives the *implementation's* scale-out path: the same
per-shard storm at 1, 2, and 4 shards through the multiprocess
:class:`~repro.core.parallel.ParallelFederation` (one worker per shard),
checking that processed events and cross-shard traffic grow with coverage.
"""

from __future__ import annotations

import math
import time

from conftest import register_report

from repro.analysis.concurrency import sweep_timeouts
from repro.analysis.memory_stats import vms_per_host_estimate
from repro.analysis.report import format_table
from repro.baselines.dedicated import dedicated_vms_per_host
from repro.net.addr import Prefix
from repro.testing.fedscenario import FederationScenario
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.worms import KNOWN_WORMS

HOST_BYTES = 2 << 30
IMAGE_BYTES = 128 << 20
PRIVATE_BYTES_PER_VM = int(1.0 * (1 << 20))  # measured ~0.8-1 MiB in F-MEM
# The 0.521 s pipeline is control-plane latency, not occupancy: stages for
# different clones overlap (the paper's toolstack serialises ~4 in flight).
CLONES_PER_SECOND_PER_HOST = 4 / 0.521
DURATION = 600.0
TIMEOUTS = [5.0, 60.0, 300.0]
PREFIX = Prefix.parse("10.16.0.0/16")


def analyze():
    workload = TelescopeWorkload([PREFIX], TelescopeConfig(seed=303))
    records = workload.generate(DURATION)
    return records, sweep_timeouts(records, TIMEOUTS)


def test_servers_per_slash16(benchmark):
    records, results = benchmark.pedantic(analyze, rounds=1, iterations=1)

    vms_per_host = vms_per_host_estimate(HOST_BYTES, IMAGE_BYTES, PRIVATE_BYTES_PER_VM)
    rows = []
    potemkin_hosts = {}
    for result in results:
        clone_rate = result.vm_instantiations / DURATION
        hosts_memory = math.ceil(result.peak_vms / vms_per_host)
        hosts_clone = math.ceil(clone_rate / CLONES_PER_SECOND_PER_HOST)
        hosts = max(hosts_memory, hosts_clone, 1)
        potemkin_hosts[result.timeout] = hosts
        bottleneck = "clone rate" if hosts_clone >= hosts_memory else "memory"
        rows.append([
            f"Potemkin, timeout {result.timeout:g}s",
            result.peak_vms,
            f"{clone_rate:.1f}",
            hosts,
            bottleneck,
        ])

    dedicated_per_host = dedicated_vms_per_host(HOST_BYTES, IMAGE_BYTES)
    dedicated_hosts = math.ceil(PREFIX.size / dedicated_per_host)
    rows.append(["dedicated VM per address", PREFIX.size, "-", dedicated_hosts,
                 "memory"])
    rows.append([
        "advantage (vs 60s Potemkin)", "-", "-",
        f"{dedicated_hosts / potemkin_hosts[60.0]:.0f}x", "",
    ])

    report = format_table(
        ["architecture", "peak VMs", "clones/s", "servers per /16", "bottleneck"],
        rows,
        title=f"F-SCALE: servers to cover a /16 ({len(records)}-packet trace)",
    )
    register_report("F-SCALE_servers_per_slash16", report)

    assert potemkin_hosts[5.0] <= 10         # aggressive recycling: a few hosts
    assert potemkin_hosts[60.0] <= 40
    assert dedicated_hosts > 1000
    assert dedicated_hosts / potemkin_hosts[60.0] > 100


# --------------------------------------------------------------------- #
# Federated scale-out sweep
# --------------------------------------------------------------------- #

SHARD_SWEEP = (1, 2, 4)


def run_shard_count(shards: int) -> dict:
    """One federated run: ``shards`` /26 shards, one worker per shard,
    each shard fed its own telescope partition plus the worm mix, so
    total offered load grows linearly with coverage."""
    scenario = FederationScenario(
        seed=190525, shards=shards, shard_bits=26, duration=10.0,
        latency=0.25, telescope_rate=2048.0, exploit_fraction=0.4,
        probes_max=100, max_packets_per_shard=400, containment="reflect",
        worms=tuple((name, 2.0) for name in sorted(KNOWN_WORMS)),
        name=f"shard-sweep-{shards}",
    )
    t0 = time.perf_counter()
    result = scenario.run(workers=shards)
    wall = time.perf_counter() - t0
    result.assert_packet_conservation()
    events = sum(r["events_processed"] for r in result.reports)
    return {
        "shards": shards,
        "workers": shards,
        "addresses": shards * scenario.addresses_per_shard,
        "wall_seconds": round(wall, 3),
        "events_processed": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
        "infections": result.infection_count(),
        "intershard_sent": result.intershard_totals()["sent"],
    }


def test_federated_shard_sweep(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_shard_count(n) for n in SHARD_SWEEP],
        rounds=1, iterations=1,
    )

    register_report(
        "F-SCALE_shard_sweep",
        format_table(
            ["shards", "addresses", "wall s", "events/s", "infections",
             "cross-shard msgs"],
            [[r["shards"], r["addresses"], f"{r['wall_seconds']:.2f}",
              f"{r['events_per_sec']:.0f}", r["infections"],
              r["intershard_sent"]] for r in rows],
            title="F-SCALE: federated shard sweep (one worker per shard)",
        ),
    )

    by_shards = {r["shards"]: r for r in rows}
    # Offered load grows with coverage, so processed events must too.
    assert by_shards[2]["events_processed"] > by_shards[1]["events_processed"]
    assert by_shards[4]["events_processed"] > by_shards[2]["events_processed"]
    # One shard has no siblings; any wider federation must cross-talk.
    assert by_shards[1]["intershard_sent"] == 0
    assert all(by_shards[n]["intershard_sent"] > 0 for n in (2, 4))
