"""Golden-determinism guard for the gateway fast path.

Runs a fixed-seed /16 telescope scenario through a full farm and renders
every metric the farm produced. The rendering must be byte-identical to
the committed golden file: any refactor of the dispatch fast path, the
event heap, the flow table, or the metric registry that changes even one
counter shows up here as a diff, not as a silently shifted experiment.

Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python -m pytest tests/test_golden_determinism.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm

GOLDEN_PATH = Path(__file__).parent / "golden" / "gateway_16_summary.txt"

DURATION = 30.0


def build_farm() -> Honeyfarm:
    return Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/16",),
        num_hosts=4,
        idle_timeout_seconds=120.0,
        flow_idle_timeout_seconds=120.0,
        sweep_interval_seconds=5.0,
        clone_jitter=0.01,
        containment="reflect",
        seed=11,
    ))


def run_scenario(batched: bool = False) -> str:
    """Run the fixed-seed scenario and render its full metric state."""
    farm = build_farm()
    workload = TelescopeWorkload(
        list(farm.inventory.prefixes), TelescopeConfig(seed=202)
    )
    records = workload.generate(DURATION)
    replay_into_farm(farm, records, batched=batched)
    farm.run(until=DURATION)

    lines = [
        f"trace_packets={len(records)}",
        f"events_processed={farm.sim.events_processed}",
        f"now={farm.sim.now!r}",
        f"live_vms={farm.live_vms}",
        f"infections={farm.infection_count()}",
        f"flows_live={len(farm.gateway.flows)}",
        f"flows_expired={farm.gateway.flows.expired_total}",
        "counters=" + json.dumps(farm.metrics.counters(), sort_keys=True),
        "report:",
        farm.metrics.report(),
    ]
    return "\n".join(lines) + "\n"


def test_fixed_seed_scenario_matches_golden(golden):
    golden.check(GOLDEN_PATH, run_scenario())


def test_scenario_is_deterministic_within_process():
    assert run_scenario() == run_scenario()


def test_batched_replay_matches_golden(golden):
    """The batched arrival stream (no span lane on this ladder-off
    farm: every arrival goes through ``process_inbound``) must reproduce
    the per-event golden byte-for-byte, ``events_processed`` included."""
    golden.check(GOLDEN_PATH, run_scenario(batched=True))


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(run_scenario())
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(run_scenario(), end="")
