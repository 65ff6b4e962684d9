"""Golden digests of generated traces.

The end-to-end ``sim_digest`` catches a moved random draw too, but only
after a two-minute benchmark run and without saying where. These hash
the trace itself — sha256 over the JSONL file ``TraceWriter`` produces,
so the generators' draw order, the time sort, the ``max_records`` /
``max_packets`` cut *and* the on-disk row format are pinned in about a
second. The digests were recorded at the commit before the trace became
columnar and must not change with the in-memory representation.

Regenerate (after an intentional change to a generator) with::

    PYTHONPATH=src python -m pytest tests/test_trace_goldens.py --update-golden
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.net.addr import IPAddress, Prefix
from repro.net.packet import PROTO_UDP
from repro.testing.scenario import Scenario, WormWave
from repro.workloads.telescope import (
    PartitionedTelescope,
    TelescopeConfig,
    TelescopeWorkload,
)
from repro.workloads.trace import TraceWriter

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.txt"

#: ``benchmarks/e2e/workloads.py`` at smoke size (every duration and cap
#: times 0.05): the no-wave storm and the one with waves and a cap.
RADIATION_SPAN_SMOKE = Scenario(
    seed=424742, prefix_bits=16, vm_image_mb=4, containment="drop-all",
    duration=24.0, telescope_rate=1200.0, exploit_fraction=0.0,
    max_packets=30_000, name="radiation_span",
)
MIXED_STORM_SMOKE = Scenario(
    seed=424742, prefix_bits=16, vm_image_mb=4, containment="reflect",
    churn=True, num_hosts=4, duration=3.0, telescope_rate=600.0,
    exploit_fraction=0.0, max_packets=5_000,
    worm_waves=(
        WormWave("slammer", start=0.05, duration=1.0, sources=12, rate=4.0),
        WormWave("codered", start=0.1, duration=1.0, sources=6, rate=4.0),
    ),
    name="mixed_storm",
)


def _telescope() -> TelescopeWorkload:
    # The default config (seed 77) over a /16 for 60 s draws exploit,
    # backscatter, sweep and UDP sources: every branch of the generator.
    return TelescopeWorkload([Prefix.parse("10.16.0.0/16")], TelescopeConfig())


def _two_prefixes() -> TelescopeWorkload:
    # Two disjoint prefixes of different sizes, registered out of address
    # order: a flat index maps through the registration order, not the
    # address order, and crosses from one prefix into the other.
    return TelescopeWorkload(
        [Prefix.parse("10.200.0.0/18"), Prefix.parse("10.16.0.0/17")],
        TelescopeConfig(),
    )


def _partitioned() -> PartitionedTelescope:
    return PartitionedTelescope(
        shard_prefixes=(("10.16.0.0/17",), ("10.16.128.0/17",)),
        duration=40.0,
        max_records_per_shard=300,
    )


TRACES = {
    "telescope_slash16_60s": lambda: _telescope().generate(60.0),
    "telescope_slash16_60s_max150": lambda: _telescope().generate(60.0, max_records=150),
    "radiation_span_smoke": RADIATION_SPAN_SMOKE.build_trace,
    "mixed_storm_smoke": MIXED_STORM_SMOKE.build_trace,
    # Smoke size stays under its cap; this one cuts waves and telescope.
    "mixed_storm_smoke_max3000": MIXED_STORM_SMOKE.with_overrides(
        max_packets=3_000
    ).build_trace,
    "partitioned_shard0": lambda: _partitioned().build(0),
    "partitioned_shard1": lambda: _partitioned().build(1),
    "telescope_two_prefixes_60s": lambda: _two_prefixes().generate(60.0),
}


def _digest(trace, path: Path) -> str:
    with TraceWriter(path) as writer:
        writer.write_all(trace)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generated_traces_match_their_golden_digests(golden, tmp_path):
    lines = []
    for name, build in TRACES.items():
        trace = build()
        digest = _digest(trace, tmp_path / f"{name}.jsonl")
        lines.append(f"{name} rows={len(trace)} sha256={digest}\n")
    golden.check(GOLDEN_PATH, "".join(lines))


def test_default_telescope_trace_covers_every_generator_branch():
    """The golden is only worth its name while the hashed trace still
    exercises exploit, backscatter, UDP and sequential-sweep sources."""
    rows = list(_telescope().generate(60.0))
    assert any(r.payload.startswith("exploit:") for r in rows)
    assert any(r.tcp_flags for r in rows)  # backscatter SYN/ACKs and RSTs
    assert any(r.protocol == PROTO_UDP for r in rows)
    by_source = {}
    for r in rows:
        by_source.setdefault(r.src, {})[IPAddress.parse(r.dst)] = None
    assert any(  # destinations in first-touched order walk the prefix
        len(dsts) >= 4 and all(b - a == 1 for a, b in zip(list(dsts), list(dsts)[1:]))
        for dsts in by_source.values()
    ), "no sequential sweep source in the default trace"


def test_two_prefix_trace_reaches_both_prefixes():
    """The multi-prefix golden pins the flat-index mapping only while
    its destinations land in both registered prefixes."""
    low, high = Prefix.parse("10.16.0.0/17"), Prefix.parse("10.200.0.0/18")
    dsts = {IPAddress.parse(r.dst) for r in _two_prefixes().generate(60.0)}
    assert all(low.contains(d) or high.contains(d) for d in dsts)
    assert any(low.contains(d) for d in dsts) and any(high.contains(d) for d in dsts)
