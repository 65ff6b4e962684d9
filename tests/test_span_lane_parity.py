"""Differential parity for the gateway's span lane.

The generic batched-loop property test (``test_properties_batched``)
runs ladder-off farms, where the span lane never engages and arrivals
take the faithful per-packet path. These tests pin the lane itself:
ladder-on farms where the storm is absorbed by the emulator tier, so
the vectorized span dispatch (and its pure-python fallback) carries
almost every packet — then compare every observable against the
per-event loop.

Parametrized over numpy availability: with ``gateway._np`` forced to
None the span lane's per-packet fallback loop runs instead of the
``np.unique`` aggregation path, and both must match the per-event arm
bit-for-bit.
"""

from __future__ import annotations

import itertools

import pytest

import repro.core.gateway as gateway_mod
from repro.core.honeyfarm import Honeyfarm
from repro.testing.scenario import Scenario
from repro.workloads.trace import replay_into_farm


def _pin_global_counters():
    import repro.vmm.devices as devices
    import repro.vmm.host as host
    import repro.vmm.memory as memory
    import repro.vmm.vm as vm

    vm._vm_ids = itertools.count(1)
    host._host_ids = itertools.count(1)
    devices._mac_counter = itertools.count(1)
    memory.reset_content_tags()


def _run_world(scenario: Scenario, trace, batched: bool):
    _pin_global_counters()
    farm = Honeyfarm(scenario.farm_config(ladder=True))
    replay_into_farm(farm, trace, batched=batched)
    farm.run(until=scenario.duration + 5.0)
    ladder = farm.gateway.ladder
    return {
        "events": farm.sim.events_processed,
        "now": farm.sim.now,
        "counters": dict(farm.metrics.counters()),
        "report": farm.metrics.report(),
        "flow_table_len": len(farm.gateway.flows),
        "flows_expired": farm.gateway.flows.expired_total,
        "sessions": sorted(
            (str(ip), s.packets_absorbed, s.buffer_dropped, s.banner)
            for ip, s in ladder.sessions.items()
        ),
    }


def _storm(exploit_fraction: float, seed: int = 20260808) -> Scenario:
    return Scenario(
        seed=seed,
        prefix_bits=24,
        duration=25.0,
        telescope_rate=140.0,
        exploit_fraction=exploit_fraction,
        max_packets=3_000,
        containment="drop-all",
        vm_image_mb=4,
    )


@pytest.mark.parametrize("numpy_enabled", [True, False], ids=["numpy", "python"])
@pytest.mark.parametrize("exploit_fraction", [0.0, 0.25])
def test_span_lane_matches_per_event(monkeypatch, numpy_enabled, exploit_fraction):
    scenario = _storm(exploit_fraction)
    trace = scenario.build_trace()

    reference = _run_world(scenario, trace, batched=False)
    if not numpy_enabled:
        monkeypatch.setattr(gateway_mod, "_np", None)
    observed = _run_world(scenario, trace, batched=True)

    assert observed["events"] == reference["events"]
    assert observed["now"] == reference["now"]
    assert observed["counters"] == reference["counters"]
    assert observed["report"] == reference["report"]
    assert observed["flow_table_len"] == reference["flow_table_len"]
    assert observed["flows_expired"] == reference["flows_expired"]
    assert observed["sessions"] == reference["sessions"]


def test_span_lane_actually_engages():
    """Guard the guard: the storm above must route through the span
    lane, otherwise the parity assertions prove nothing about it."""
    scenario = _storm(0.0)
    trace = scenario.build_trace()
    _pin_global_counters()
    farm = Honeyfarm(scenario.farm_config(ladder=True))
    replay_into_farm(farm, trace, batched=True)
    farm.run(until=scenario.duration + 5.0)
    counters = dict(farm.metrics.counters())
    # Nearly every packet of the no-exploit storm is emulator-absorbed;
    # the batched replay only ever delivers spans, so a healthy lane
    # keeps per-packet dispatch (and Packet materialization) rare.
    assert counters.get("gateway.emulated", 0) > 0.9 * len(trace)
    columns = None
    for session in farm.gateway.ladder.sessions.values():
        for item in session.buffered:
            if type(item) is tuple:
                columns = item[0]
                break
        if columns is not None:
            break
    assert columns is not None, "no lazily-buffered span arrivals found"
    materialized = sum(1 for p in columns.packets if p is not None)
    assert materialized < 0.2 * columns.n
