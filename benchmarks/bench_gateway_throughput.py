"""Experiment T-GATEWAY — gateway dispatch performance.

The gateway makes a policy decision on every packet, so its per-packet
cost bounds farm throughput. The paper's Click gateway handled full
telescope line rate; the property that must reproduce is *shape*: the
flow-table hit path is cheap and constant, and vastly cheaper than the
path that triggers a flash clone.

These are genuine wall-clock microbenchmarks of the reproduction's
gateway (pytest-benchmark does the timing); the summary table reports
packets/second through each path.
"""

from __future__ import annotations

from conftest import register_report

from repro.analysis.report import format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet

ATTACKER = IPAddress.parse("203.0.113.123")
TARGET = IPAddress.parse("10.16.0.77")

_RESULTS = {}


def make_farm() -> Honeyfarm:
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/16",),
        num_hosts=4,
        idle_timeout_seconds=1e6,  # nothing recycles during the measurement
        sweep_interval_seconds=1e5,
        clone_jitter=0.0,
        seed=3,
    ))
    return farm


def test_hot_path_existing_vm(benchmark):
    """Packets to an address whose VM is live: the common case."""
    farm = make_farm()
    farm.inject(tcp_packet(ATTACKER, TARGET, 1, 445))
    farm.run(until=2.0)  # clone completes; VM is hot
    packet = tcp_packet(ATTACKER, TARGET, 2, 445)

    def hot_path():
        farm.gateway.process_inbound(packet)

    benchmark(hot_path)
    _RESULTS["hot path (live VM)"] = benchmark.stats.stats.mean


def test_stray_path(benchmark):
    """Packets outside the inventory: pure lookup cost."""
    farm = make_farm()
    packet = tcp_packet(ATTACKER, IPAddress.parse("172.16.0.1"), 2, 445)

    def stray():
        farm.gateway.process_inbound(packet)

    benchmark(stray)
    _RESULTS["stray (not our prefix)"] = benchmark.stats.stats.mean


def test_clone_trigger_path(benchmark):
    """First packet to a cold address: includes VM creation bookkeeping."""
    farm = make_farm()
    base = IPAddress.parse("10.16.1.0")
    counter = [0]

    def cold_path():
        farm.gateway.process_inbound(
            tcp_packet(ATTACKER, IPAddress(base + counter[0]), 1, 445)
        )
        counter[0] += 1

    benchmark.pedantic(cold_path, rounds=2000, iterations=1)
    _RESULTS["cold (triggers clone)"] = benchmark.stats.stats.mean


def test_report_gateway_throughput(benchmark):
    """Assemble the summary table once the paths above have run."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_RESULTS) < 3:
        return
    rows = [
        [name, f"{mean * 1e6:.2f}", f"{1.0 / mean:,.0f}"]
        for name, mean in _RESULTS.items()
    ]
    report = format_table(
        ["gateway path", "cost/packet (µs)", "packets/s"],
        rows, title="T-GATEWAY: per-packet dispatch cost by path",
    )
    register_report("T-GATEWAY_dispatch_cost", report)

    hot = _RESULTS["hot path (live VM)"]
    cold = _RESULTS["cold (triggers clone)"]
    assert cold > 2 * hot  # clone path is much more expensive
    assert 1.0 / hot > 10_000  # hot path sustains >10k pps even in Python
