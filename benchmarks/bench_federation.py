"""Parallel sharded federation: scaling and bit-equality gates.

The paper scales the honeyfarm past one gateway by partitioning the dark
space across several gateway/farm pairs. This bench drives that split
end-to-end through both lanes of the implementation:

* ``reference`` — the in-process interlinked
  :class:`~repro.core.federation.FederatedHoneyfarm` (golden semantics);
* ``workers=N`` — :class:`~repro.core.parallel.ParallelFederation`, the
  same shards spread over N OS processes synchronized by lockstep
  epochs.

Every arm replays the identical federated scenario (per-shard telescope
partitions plus a worm mix under ``reflect`` containment, so reflected
scans and their replies stream across shard boundaries the whole run).
Acceptance (exit 1 on failure):

* **Bit-equality** — every arm's per-shard reports are *identical*,
  field for field: the process layout must never leak into results.
* **Scaling** (full mode only) — parallel efficiency at the widest arm
  is at least ``SPEEDUP_EFFICIENCY_FLOOR`` of ideal, where ideal speedup
  over the one-worker arm is ``min(workers, cpu_count)`` (a single-core
  box cannot scale, so there the gate degenerates to "multiprocess
  overhead stays bounded", which is exactly what it can still catch).
  ``--smoke`` prints and records the efficiency but does not gate on it:
  its arms run for well under a second, where process start-up and a
  busy second CPU decide the ratio, not the code.
* **Liveness** — the scenario actually exercised the message layer:
  cross-shard messages were sent and received, and global packet
  conservation holds.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_federation.py [--smoke]

Results land in ``benchmarks/reports/BENCH_federation.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.testing.fedscenario import FederationScenario
from repro.workloads.worms import KNOWN_WORMS

REPORT_DIR = Path(__file__).resolve().parent / "reports"

BENCH_SEED = 190525

#: Widest parallel arm (full mode); smoke stops at 2 workers.
FULL_WORKERS = (1, 8)
SMOKE_WORKERS = (1, 2)

#: Full-mode acceptance: measured speedup of the widest arm over the
#: one-worker arm, as a fraction of the ideal speedup
#: ``min(workers, cpu_count)``. Smoke mode has no wall-clock gate.
SPEEDUP_EFFICIENCY_FLOOR = 0.7


def federated_scenario(smoke: bool) -> FederationScenario:
    """The seeded cross-shard storm every arm replays: all known worms
    registered, reflect containment, one telescope partition per shard."""
    worms = tuple((name, 2.0) for name in sorted(KNOWN_WORMS))
    if smoke:
        return FederationScenario(
            seed=BENCH_SEED, shards=2, shard_bits=26, duration=10.0,
            latency=0.25, telescope_rate=2048.0, exploit_fraction=0.4,
            probes_max=100, max_packets_per_shard=400,
            containment="reflect", worms=worms, name="bench-smoke",
        )
    return FederationScenario(
        seed=BENCH_SEED, shards=8, shard_bits=26, duration=25.0,
        latency=0.25, telescope_rate=2048.0, exploit_fraction=0.4,
        probes_max=100, max_packets_per_shard=1200,
        containment="reflect", worms=worms, name="bench-full",
    )


def run_arm(scenario: FederationScenario, workers: int) -> Dict[str, Any]:
    """One arm: the in-process reference (``workers=0``) or the parallel
    lane at ``workers`` processes — one code path, one result type."""
    gc.collect()
    t0 = time.perf_counter()
    result = scenario.run(workers)
    wall = time.perf_counter() - t0
    result.assert_packet_conservation()
    return {
        "arm": f"workers={workers}" if workers else "reference",
        "workers": workers,
        "assignment": list(result.assignment),
        "wall_seconds": round(wall, 3),
        "events_processed": sum(
            r["events_processed"] for r in result.reports
        ),
        "infections": result.infection_count(),
        "intershard_sent": result.intershard_totals()["sent"],
        "_reports": result.reports,
    }


def check_criteria(
    arms: List[Dict[str, Any]], smoke: bool
) -> List[str]:
    failures: List[str] = []
    reference = arms[0]
    for arm in arms[1:]:
        if arm["_reports"] != reference["_reports"]:
            diverged = [
                shard["shard"]
                for shard, golden in zip(arm["_reports"], reference["_reports"])
                if shard != golden
            ]
            failures.append(
                f"{arm['arm']} reports diverged from the reference"
                f" (shards {diverged}): process layout leaked into results"
            )
    if reference["intershard_sent"] <= 0:
        failures.append(
            "scenario sent no cross-shard messages; the bench is not"
            " exercising the message layer"
        )
    if reference["infections"] <= 0:
        failures.append("scenario produced no infections; storm too weak")

    one = next(a for a in arms if a["workers"] == 1)
    wide = max(arms[1:], key=lambda a: a["workers"])
    ideal = min(wide["workers"], os.cpu_count() or 1)
    speedup = (
        one["wall_seconds"] / wide["wall_seconds"]
        if wide["wall_seconds"] > 0 else 0.0
    )
    if not smoke and speedup < SPEEDUP_EFFICIENCY_FLOOR * ideal:
        failures.append(
            f"{wide['arm']} speedup {speedup:.2f}x over workers=1 is below"
            f" {SPEEDUP_EFFICIENCY_FLOOR:.0%} of ideal ({ideal}x on this"
            f" {os.cpu_count() or 1}-cpu machine)"
        )
    return failures


def run_bench(smoke: bool = False) -> Dict[str, Any]:
    scenario = federated_scenario(smoke)
    arms = [
        run_arm(scenario, workers)
        for workers in (0,) + (SMOKE_WORKERS if smoke else FULL_WORKERS)
    ]
    failures = check_criteria(arms, smoke)

    one = next(a for a in arms if a["workers"] == 1)
    wide = max(arms[1:], key=lambda a: a["workers"])
    ideal = min(wide["workers"], os.cpu_count() or 1)
    speedup = (
        round(one["wall_seconds"] / wide["wall_seconds"], 2)
        if wide["wall_seconds"] > 0 else None
    )
    bit_identical = all(
        arm["_reports"] == arms[0]["_reports"] for arm in arms[1:]
    )
    for arm in arms:
        arm.pop("_reports")
    return {
        "config": {
            "smoke": smoke,
            "seed": BENCH_SEED,
            "shards": scenario.shards,
            "duration_seconds": scenario.duration,
            "latency_seconds": scenario.latency,
            "cpu_count": os.cpu_count(),
            "efficiency_floor": None if smoke else SPEEDUP_EFFICIENCY_FLOOR,
            "ideal_speedup": ideal,
        },
        "arms": {arm["arm"]: arm for arm in arms},
        "bit_identical": bit_identical,
        "speedup": speedup,
        "speedup_vs_ideal": (
            round(speedup / ideal, 2) if speedup is not None else None
        ),
        "failures": failures,
        "passed": not failures,
    }


def write_bench(smoke: bool = False) -> Path:
    REPORT_DIR.mkdir(exist_ok=True)
    doc = run_bench(smoke=smoke)
    out = REPORT_DIR / "BENCH_federation.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="2 shards x 2 workers for CI")
    args = parser.parse_args(argv)
    out = write_bench(smoke=args.smoke)
    doc = json.loads(out.read_text())
    print(f"wrote {out}")
    config = doc["config"]
    print(f"  scenario: {config['shards']} shards,"
          f" {config['duration_seconds']:.0f}s simulated,"
          f" {config['cpu_count']} cpus")
    for arm in doc["arms"].values():
        print(f"  {arm['arm']:>12}: {arm['wall_seconds']:.2f}s wall,"
              f" {arm['events_processed']} events,"
              f" {arm['infections']} infections,"
              f" {arm['intershard_sent']} cross-shard msgs")
    print(f"  bit-identical across arms: {doc['bit_identical']}")
    floor = config["efficiency_floor"]
    print(f"  speedup (widest vs workers=1): {doc['speedup']}x"
          f" = {doc['speedup_vs_ideal']}x ideal"
          f" ({'not gated in smoke mode' if floor is None else f'floor {floor:.0%}'})")
    if doc["failures"]:
        for failure in doc["failures"]:
            print(f"ERROR: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
