"""Differential parity for the gateway's span lane.

The generic batched-loop property test (``test_properties_batched``)
runs ladder-off farms, where the span lane is never offered and every
arrival takes the per-packet lane. These tests pin the span lane itself:
ladder-on farms where the storm is absorbed by the emulator tier, so
span dispatch carries almost every packet — then compare every
observable against the per-event loop.

There is one span implementation and one validity rule (a cache entry
holds until something happens to *its destination address*), so the
matrix is: an uninterrupted storm, a storm interrupted by promotions,
clones and reclamation (alone, crossed with ladder on/off and a flight
recorder or packet tap installed, and with timeouts short enough that
the cache sheds), a respawn behind the cache's back, and a hypothesis
property that interleaves radiation with every
event that invalidates an entry. One more group covers what the lane
assumes about the farm itself (policy, personality rule) when that is
replaced through the farm's public attributes.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeceptionConfig
from repro.core.containment import OpenPolicy
from repro.core.honeyfarm import Honeyfarm
from repro.fidelity.span import SpanLane
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.obs import recording
from repro.testing.scenario import Scenario, WormWave
from repro.workloads.trace import TraceRecord, replay_into_farm
from repro.workloads.worms import KNOWN_WORMS


def _pin_global_counters():
    import repro.vmm.devices as devices
    import repro.vmm.host as host
    import repro.vmm.memory as memory
    import repro.vmm.vm as vm

    vm._vm_ids = itertools.count(1)
    host._host_ids = itertools.count(1)
    devices._mac_counter = itertools.count(1)
    memory.reset_content_tags()


def _observe(farm: Honeyfarm):
    """Everything the two arms must agree on: clock, counters, the
    ladder's sessions (none on a ladder-off farm) and the flow table,
    field by field."""
    ladder = farm.gateway.ladder
    sessions = ladder.sessions if ladder is not None else {}
    return {
        "events": farm.sim.events_processed,
        "now": farm.sim.now,
        "counters": dict(farm.metrics.counters()),
        "report": farm.metrics.report(),
        "flows_expired": farm.gateway.flows.expired_total,
        "flows": sorted(
            (str(r.key), r.first_seen, r.last_seen, str(r.initiator),
             r.packets, r.bytes, r.vm_id)
            for r in farm.gateway.flows
        ),
        "sessions": sorted(
            (str(ip), s.created_at, s.last_seen, s.packets_absorbed,
             s.buffer_dropped, s.banner, s.payload_bytes_total, len(s.buffered),
             sorted((str(k), f.exchanges, f.payload_bytes) for k, f in s.flows.items()))
            for ip, s in sessions.items()
        ),
        "vms": sorted((str(ip), vm.vm_id) for ip, vm in farm.gateway.vm_map.items()),
    }


def _run_world(config, trace, batched: bool, until: float, prepare=None):
    """One arm: a fresh farm, the trace replayed per-event or batched,
    ``prepare(farm)`` run before the replay attaches."""
    _pin_global_counters()
    farm = Honeyfarm(config)
    if prepare is not None:
        prepare(farm)
    replay_into_farm(farm, trace, batched=batched)
    farm.run(until=until)
    return farm


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


@pytest.mark.parametrize("exploit_fraction", [0.0, 0.25])
def test_span_lane_matches_per_event(exploit_fraction):
    scenario = _storm(exploit_fraction)
    trace = scenario.build_trace()
    config = scenario.farm_config(ladder=True)
    until = scenario.duration + 5.0

    reference = _observe(_run_world(config, trace, False, until))
    observed = _observe(_run_world(config, trace, True, until))

    assert observed == reference


def test_span_lane_actually_engages():
    """Guard the guard: the storm above must route through the span
    lane, otherwise the parity assertions prove nothing about it."""
    scenario = _storm(0.0)
    trace = scenario.build_trace()
    farm = _run_world(
        scenario.farm_config(ladder=True), trace, True, scenario.duration + 5.0
    )
    gateway = farm.gateway
    counters = dict(farm.metrics.counters())
    assert counters.get("gateway.emulated", 0) > 0.9 * len(trace)
    # One resolve per flow, far fewer than one per packet; nothing
    # interrupts this storm, so no cached flow is ever resolved twice.
    assert 0 < gateway.span_resolves < 0.8 * len(trace)
    assert gateway.span_reresolves == 0


# ---------------------------------------------------------------------- #
# The farm the lane resolved under is replaced through public attributes
# ---------------------------------------------------------------------- #

def _swap_policy_mid_run(farm: Honeyfarm) -> None:
    # drop-all contains the emulator's ICMP unreachables; the open
    # policy that replaces it at t=0.5 ships them.
    farm.sim.schedule_at(0.5, setattr, farm.gateway, "policy", OpenPolicy())


@pytest.mark.parametrize(
    "deception, prepare",
    [
        (None, _swap_policy_mid_run),
        # Per-address personalities without the jitter that would
        # disqualify the lane: no address may answer as the prefix's one.
        (DeceptionConfig(enabled=True, jitter_max_seconds=0.0), None),
    ],
    ids=["policy-swap", "deception-no-jitter"],
)
def test_span_lane_follows_the_farm_it_serves(deception, prepare):
    scenario = _storm(0.0)
    trace = scenario.build_trace()
    config = scenario.farm_config(ladder=True)
    if deception is not None:
        config = dataclasses.replace(config, deception=deception)
    until = scenario.duration + 5.0

    reference = _run_world(config, trace, False, until, prepare=prepare)
    observed = _run_world(config, trace, True, until, prepare=prepare)

    assert _observe(observed) == _observe(reference)
    assert observed.gateway.span_resolves > 0


# ---------------------------------------------------------------------- #
# Interrupted storm: the mixed_storm shape at /24 size
# ---------------------------------------------------------------------- #

def _interrupted_storm() -> Scenario:
    return Scenario(
        seed=424742,
        prefix_bits=24,
        vm_image_mb=4,
        containment="reflect",
        churn=True,
        num_hosts=4,
        duration=25.0,
        telescope_rate=140.0,
        exploit_fraction=0.0,
        max_packets=3_000,
        worm_waves=(
            WormWave("slammer", start=1.0, duration=10.0, sources=3, rate=2.0),
            WormWave("codered", start=2.0, duration=10.0, sources=2, rate=2.0),
        ),
    )


def _register_worms(farm: Honeyfarm) -> None:
    dns = farm.config.dns_address()
    for worm in KNOWN_WORMS.values():
        farm.register_worm(worm.with_scan_rate(0.01).behavior(dns))


def test_interrupted_storm_keeps_other_addresses_cached():
    scenario = _interrupted_storm()
    trace = scenario.build_trace()
    config = scenario.farm_config(ladder=True)
    until = scenario.duration + 5.0

    reference = _run_world(config, trace, False, until, prepare=_register_worms)

    # Destinations the span lane has served (so a cached entry exists),
    # and slow-path packets that then arrived for one of them: the only
    # packets that are allowed to cost a cached flow a second resolve.
    # Top-level calls only — a reply or reflection the gateway routes
    # back into itself while handling a packet is not an arrival.
    span_served = set()
    slow_to_cached = [0]
    depth = [0]

    def prepare(farm: Honeyfarm) -> None:
        _register_worms(farm)
        gateway = farm.gateway
        dispatch_span = gateway.dispatch_span
        process_inbound = gateway.process_inbound

        def counting_span(columns, start, limit):
            consumed = dispatch_span(columns, start, limit)
            span_served.update(
                columns.keys[k][2] for k in range(start, start + consumed)
            )
            return consumed

        def counting_inbound(packet):
            if depth[0] == 0 and packet.dst.value in span_served:
                slow_to_cached[0] += 1
            depth[0] += 1
            try:
                process_inbound(packet)
            finally:
                depth[0] -= 1

        gateway.dispatch_span = counting_span
        gateway.process_inbound = counting_inbound

    observed = _run_world(config, trace, True, until, prepare=prepare)

    assert _observe(observed) == _observe(reference)
    counters = dict(observed.metrics.counters())
    # The storm really is interrupted: promotions, clones, reclamation.
    assert counters["ladder.promotions"] > 20
    assert counters["ladder.demotions"] > 5
    gateway = observed.gateway
    assert 0 < gateway.span_reresolves <= slow_to_cached[0]


@pytest.mark.parametrize("observer", ["none", "recorder", "tap"])
@pytest.mark.parametrize("ladder", [True, False], ids=["ladder-on", "ladder-off"])
def test_interrupted_storm_is_lane_independent(ladder, observer):
    """The cells that used to pick a different lane: a recorder or a tap
    installed, a ladder present or not. Per-event and batched replay must
    agree on every observable and on what the observer saw, line by line."""
    scenario = _interrupted_storm()
    trace = scenario.build_trace()
    config = scenario.farm_config(ladder=ladder)
    until = scenario.duration + 5.0

    def arm(batched: bool):
        tapped = []

        def prepare(farm: Honeyfarm) -> None:
            _register_worms(farm)
            if observer == "tap":
                # Every field but packet_id (a process-global counter the
                # lazy batched arm draws from in a different order).
                farm.attach_packet_tap(lambda p: tapped.append((
                    str(p.src), str(p.dst), p.protocol, p.src_port, p.dst_port,
                    int(p.flags), p.icmp_type, p.payload, p.size, p.ttl,
                )))

        if observer != "recorder":
            return _observe(_run_world(config, trace, batched, until, prepare)), tapped
        with recording(capacity=400_000) as recorder:
            farm = _run_world(config, trace, batched, until, prepare)
        return _observe(farm), list(recorder.iter_jsonl())

    reference, reference_seen = arm(batched=False)
    observed, observed_seen = arm(batched=True)

    assert observed == reference
    if observer != "none":
        assert reference_seen, "the observer saw nothing"
    for line_no, (a, b) in enumerate(zip(reference_seen, observed_seen)):
        assert a == b, f"{observer} stream diverges at line {line_no}"
    assert len(observed_seen) == len(reference_seen)


# ---------------------------------------------------------------------- #
# Shedding: the cache lets go of what expired, and nobody can tell
# ---------------------------------------------------------------------- #

def test_span_cache_shedding_is_invisible(monkeypatch):
    """The interrupted storm with a 4 s flow and session timeout, so
    records and sessions expire all through it and the cache outgrows
    twice the flow table more than once. Its first second of radiation
    comes round again at 18 s, long after those flows were shed, and its
    first packet repeats every half second, a flow that outlives every
    rebuild. Batched must still equal per-event (which has no cache to
    shed), observable by observable."""
    scenario = _interrupted_storm()
    rows = list(scenario.build_trace())
    again = [
        dataclasses.replace(row, time=row.time + 18.0)
        for row in rows if row.time < 1.0 and not row.payload
    ]
    steady = [
        dataclasses.replace(again[0], time=rows[0].time + 0.5 * beat)
        for beat in range(1, 50)
    ]
    trace = sorted(rows + again + steady, key=lambda row: row.time)
    config = dataclasses.replace(
        scenario.farm_config(ladder=True), flow_idle_timeout_seconds=4.0
    )
    until = scenario.duration + 5.0
    shed = SpanLane.shed
    rebuilds = []

    def counting_shed(lane):
        before = lane.cache
        shed(lane)
        if lane.cache is not before:
            rebuilds.append((len(before), len(lane.cache)))

    reference = _run_world(config, trace, False, until, prepare=_register_worms)
    monkeypatch.setattr(SpanLane, "shed", counting_shed)
    observed = _run_world(config, trace, True, until, prepare=_register_worms)
    monkeypatch.setattr(SpanLane, "shed", lambda lane: None)
    hoarding = _run_world(config, trace, True, until, prepare=_register_worms)

    assert _observe(observed) == _observe(reference)
    counters = dict(observed.metrics.counters())
    assert counters["ladder.sessions_expired"] > 100
    assert observed.gateway.flows.expired_total > 100
    # Each rebuild dropped more than it kept, and the run ends with the
    # table and the cache both empty; left alone the cache ends it
    # holding every key it ever resolved.
    assert len(rebuilds) >= 2
    assert all(kept < before - kept for before, kept in rebuilds)
    assert len(observed.gateway.flows) == len(hoarding.gateway.flows) == 0
    assert len(observed.gateway._span_lane.cache) == 0
    assert len(hoarding.gateway._span_lane.cache) > 1000
    # Only dead entries go: the steady flow is resolved once, and a key
    # that comes back after its entry was shed costs the resolve its dead
    # entry would have cost anyway, so the resolve count is the hoarding
    # cache's. It just is not a *re*-resolve any more — which is why span_reresolves is lower here,
    # and why the assertions on it above are upper bounds or zeroes.
    assert observed.gateway.span_resolves == hoarding.gateway.span_resolves
    assert 0 < observed.gateway.span_reresolves < hoarding.gateway.span_reresolves


@pytest.mark.parametrize("lane", ["span", "per-packet"])
def test_span_lane_forgets_the_rows_an_emptied_table_released(monkeypatch, lane):
    """Seventy flows to one address expire at a sweep while a late
    seventy-first keeps its session alive, and the cache keeps their
    entries (shedding off). The seventy-first then expires lazily — on
    the span lane, inside a span, or on the per-packet lane under a
    payload — and the emptied table releases its columns. The next
    arrival has a cached entry of the same live session on a row past
    the regrown columns: the lane must resolve it afresh."""
    scenario = Scenario(
        seed=7, prefix_bits=24, duration=30, containment="drop-all", num_hosts=2,
    )
    config = dataclasses.replace(
        scenario.farm_config(ladder=True), flow_idle_timeout_seconds=3.0,
    )
    sources = [f"198.51.100.{k + 1}" for k in range(71)]
    trace = [_syn(0.01 * k, src=src) for k, src in enumerate(sources[:70])]
    trace.append(_syn(2.5, src=sources[70]))
    last = _syn(5.8, src=sources[70])
    if lane == "per-packet":
        last = dataclasses.replace(last, payload="x" * 10, size=50)
    trace += [last, _syn(5.81, src=sources[69])]

    reference = _observe(_run_world(config, trace, False, 8.0))
    monkeypatch.setattr(SpanLane, "shed", lambda lane: None)
    farm = _run_world(config, trace, True, 8.0)

    assert _observe(farm) == reference
    assert farm.gateway.flows.releases == 1
    assert farm.gateway.span_resolves == len(trace) - (lane == "per-packet")


# ---------------------------------------------------------------------- #
# Regression: a respawn binds a VM behind the span cache's back
# ---------------------------------------------------------------------- #

_TARGET = "10.16.0.9"
_SOURCE = "198.51.100.7"


def _syn(t: float, dst: str = _TARGET, src: str = _SOURCE, port: int = 80):
    return TraceRecord(
        time=t, src=src, dst=dst, protocol=PROTO_TCP, src_port=5000, dst_port=port
    )


def _slammer(t: float, dst: str = _TARGET, src: str = _SOURCE):
    return TraceRecord(
        time=t, src=src, dst=dst, protocol=PROTO_UDP, src_port=4000,
        dst_port=1434, payload="exploit:slammer", size=416,
    )


def _crash_host_of(farm: Honeyfarm, address: str) -> None:
    vm = farm.gateway.vm_map.get(IPAddress.parse(address))
    if vm is None:
        return
    host = next(h for h in farm.hosts if vm in h.vms())
    farm.crash_host(host)
    farm.sim.schedule(2.0, farm.repair_host, host)


def test_respawned_address_is_served_by_its_vm_again():
    """The exploit promotes the target to a VM; its host crashes; the
    emulator answers the next SYNs (and the span lane caches that flow);
    the farm respawns the VM from a heap callback. From then on the VM
    must answer — per-event it does, and batched must agree."""
    scenario = Scenario(
        seed=1, prefix_bits=24, duration=30, telescope_rate=1, max_packets=10,
        containment="drop-all", num_hosts=2,
    )
    config = scenario.farm_config(ladder=True)
    trace = [_slammer(1.0)]
    trace += [_syn(t) for t in (5.2, 5.3, 5.4, 5.5)]
    trace += [_syn(t) for t in (12.1, 12.2, 12.3, 12.4, 12.5, 12.6)]

    def prepare(farm: Honeyfarm) -> None:
        farm.sim.schedule_at(5.0, _crash_host_of, farm, _TARGET)

    reference = _observe(_run_world(config, trace, False, 35.0, prepare=prepare))
    observed = _observe(_run_world(config, trace, True, 35.0, prepare=prepare))

    assert reference["counters"]["farm.respawns"] == 1
    assert reference["counters"]["gateway.delivered"] == 7
    assert reference["counters"]["gateway.emulated"] == 4
    assert observed == reference


def test_an_unreachable_entry_writes_only_rows_it_holds():
    """An ``_UNREACHABLE`` entry names two rows: the probe's flow and the
    ICMP unreachable's. Here the ICMP flow leaves the table on its own
    (discarded by hand) and another flow moves into its row: the next
    probe must resolve afresh, not count into the newcomer."""
    scenario = Scenario(
        seed=7, prefix_bits=24, duration=30, containment="drop-all", num_hosts=2,
    )
    farm = Honeyfarm(scenario.farm_config(ladder=True))

    def probe(t: float) -> TraceRecord:
        return TraceRecord(
            time=t, src=_SOURCE, dst=_TARGET, protocol=PROTO_UDP,
            src_port=4001, dst_port=9,
        )

    replay_into_farm(farm, [probe(1.0)], batched=True)
    farm.run(until=1.5)
    [entry] = farm.gateway._span_lane.cache.values()
    flows = farm.gateway.flows
    icmp_row = entry[5]
    flows.discard(flows.record(icmp_row))
    newcomer = flows.create((1, 2, 3, 4, PROTO_TCP), 1, 1.5)
    assert newcomer == icmp_row
    replay_into_farm(farm, [probe(2.0)], batched=True)
    farm.run(until=2.5)
    assert (flows.packets[newcomer], flows.last_seen[newcomer]) == (0, 1.5)
    assert farm.gateway.span_reresolves == 1
    assert farm.metrics.counters()["gateway.ladder_replies_contained"] == 2


# ---------------------------------------------------------------------- #
# Property: radiation interleaved with every invalidating event
# ---------------------------------------------------------------------- #

_ADDRESSES = ["10.16.0.3", "10.16.0.4"]
_SOURCES = ["198.51.100.7", "203.0.113.9"]
#: Short enough that a drawn gap outlives them: VMs idle out (demotion),
#: flows expire, and ``ladder.sweep`` kills idle sessions.
_IDLE = 3.0

_radiation = st.tuples(
    st.sampled_from(["syn-open", "syn-closed", "udp-closed", "ping"]),
    st.sampled_from(_ADDRESSES),
    st.sampled_from(_SOURCES),
)
_interruption = st.tuples(
    st.sampled_from(["payload", "exploit", "crash"]),
    st.sampled_from(_ADDRESSES),
    st.sampled_from(_SOURCES),
)
_steps = st.lists(
    st.tuples(
        # Mostly sub-second gaps (one span covers many steps), sometimes
        # one that outlives every timeout.
        st.sampled_from([0.0, 0.05, 0.05, 0.2, 0.2, 0.7, 1.3, _IDLE + 1.5]),
        st.one_of(_radiation, _radiation, _interruption),
    ),
    min_size=20,
    max_size=80,
)


def _property_world(steps):
    """The trace and the crash schedule a drawn step list stands for."""
    trace, crashes = [], []
    t = 0.5
    for gap, (what, dst, src) in steps:
        t = round(t + gap, 3)
        if what == "syn-open":
            trace.append(_syn(t, dst, src, port=80))
        elif what == "syn-closed":
            trace.append(_syn(t, dst, src, port=81))
        elif what == "udp-closed":
            trace.append(TraceRecord(
                time=t, src=src, dst=dst, protocol=PROTO_UDP,
                src_port=4001, dst_port=9,
            ))
        elif what == "ping":
            trace.append(TraceRecord(
                time=t, src=src, dst=dst, protocol=PROTO_ICMP, size=64,
            ))
        elif what == "payload":
            # 300 bytes on the SYN's own flow: the second one crosses the
            # 512-byte trigger and promotes.
            trace.append(TraceRecord(
                time=t, src=src, dst=dst, protocol=PROTO_TCP, src_port=5000,
                dst_port=80, payload="x" * 300, size=340,
            ))
        elif what == "exploit":
            trace.append(_slammer(t, dst, src))
        else:
            # The respawn follows the crash by ~0.5 s: a SYN in between
            # lands on the emulator and leaves a span entry behind.
            crashes.append((t, dst))
            trace.append(_syn(round(t + 0.1, 3), dst, src, port=80))
    trace.sort(key=lambda record: record.time)
    return trace, crashes, t


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(steps=_steps)
def test_span_lane_survives_every_invalidating_event(steps):
    trace, crashes, end = _property_world(steps)
    scenario = Scenario(
        seed=7, prefix_bits=24, duration=30, containment="drop-all", num_hosts=2,
    )
    config = dataclasses.replace(
        scenario.farm_config(ladder=True),
        idle_timeout_seconds=_IDLE,
        flow_idle_timeout_seconds=_IDLE,
    )

    def prepare(farm: Honeyfarm) -> None:
        for at, address in crashes:
            farm.sim.schedule_at(at, _crash_host_of, farm, address)

    until = end + 2 * _IDLE
    reference = _observe(_run_world(config, trace, False, until, prepare=prepare))
    observed = _observe(_run_world(config, trace, True, until, prepare=prepare))

    assert observed == reference


# ---------------------------------------------------------------------- #
# CI and the benchmark box run the same code
# ---------------------------------------------------------------------- #

_NO_NUMPY_SCRIPT = """
import sys
from repro.core.honeyfarm import Honeyfarm
from repro.testing.scenario import Scenario
from repro.workloads.trace import replay_into_farm

scenario = Scenario(seed=3, prefix_bits=24, duration=5.0, telescope_rate=100.0,
                    exploit_fraction=0.2, max_packets=400)
farm = Honeyfarm(scenario.farm_config(ladder=True))
replay_into_farm(farm, scenario.build_trace(), batched=True)
farm.run(until=8.0)
assert farm.gateway.span_resolves > 0, "span lane never ran"
assert "numpy" not in sys.modules, "a batched ladder-on replay imported numpy"
"""


def test_batched_replay_never_imports_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
