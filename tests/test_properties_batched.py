"""Property test: the batched event loop is a pure mechanical transform.

For fuzzer-generated scenarios (the same generator the conformance
harness uses), replaying the scenario's trace through the batched
arrival stream must produce **bit-identical** observables to the
per-event loop: the flight-recorder JSONL stream, every metric counter,
and the end-of-run metric snapshot.

Process-global id counters (vm ids, host ids, MAC suffixes, page-content
versions) are pinned before each run so the two replays hand out
identical ids — the goldens get this for free by running in a fresh
process; here both runs share one interpreter.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.honeyfarm import Honeyfarm
from repro.faults.injectors import ChaosController
from repro.obs import FlightRecorder, install, uninstall
from repro.testing.scenario import ScenarioGenerator
from repro.workloads.trace import replay_into_farm
from repro.workloads.worms import KNOWN_WORMS

pytestmark = pytest.mark.slow  # hypothesis-heavy

SNAPSHOT_INTERVAL = 2.0


def _pin_global_counters():
    """Rewind the process-global id counters the trace can observe."""
    import repro.vmm.devices as devices
    import repro.vmm.host as host
    import repro.vmm.memory as memory
    import repro.vmm.vm as vm

    vm._vm_ids = itertools.count(1)
    host._host_ids = itertools.count(1)
    devices._mac_counter = itertools.count(1)
    memory.reset_content_tags()


def _replay(scenario, trace, batched: bool):
    _pin_global_counters()
    farm = Honeyfarm(scenario.farm_config())
    dns = farm.config.dns_address()
    for worm in KNOWN_WORMS.values():
        farm.register_worm(worm.with_scan_rate(2.0).behavior(dns))
    plan = scenario.fault_plan()
    controller = ChaosController(farm, plan) if plan else None

    recorder = FlightRecorder(capacity=400_000)
    install(recorder)
    try:
        replay_into_farm(farm, trace, batched=batched)
        if controller is not None:
            controller.start()
        recorder.start_snapshots(farm.sim, farm.metrics, SNAPSHOT_INTERVAL)
        farm.run(until=scenario.duration + 5.0)
    finally:
        uninstall()
    return (
        list(recorder.iter_jsonl()),
        dict(farm.metrics.counters()),
        farm.metrics.report(),
        farm.sim.events_processed,
        farm.sim.now,
    )


@settings(max_examples=8, deadline=None)
@given(
    root_seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=3),
)
def test_batched_loop_is_bit_identical(root_seed, index):
    scenario = ScenarioGenerator(root_seed).scenario(index)
    trace = scenario.build_trace()

    jsonl_a, counters_a, report_a, events_a, now_a = _replay(scenario, trace, False)
    jsonl_b, counters_b, report_b, events_b, now_b = _replay(scenario, trace, True)

    assert events_a == events_b
    assert now_a == now_b
    assert counters_a == counters_b
    assert report_a == report_b
    if jsonl_a != jsonl_b:  # narrow the diff before failing
        for line_no, (a, b) in enumerate(zip(jsonl_a, jsonl_b)):
            assert a == b, f"trace diverges at line {line_no}"
        assert len(jsonl_a) == len(jsonl_b)
