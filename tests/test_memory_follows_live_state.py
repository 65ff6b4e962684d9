"""The leak gate: host memory is a function of live, used state.

The paper's scalability argument is that a VM is reclaimed shortly after
it goes idle and costs only its delta while it lives. The simulator's own
heap has to behave the same way or a paper-scale storm cannot be run:
nothing may hold a retired VM, an expired flow or a dropped session, and
a guest that never draws a random number never seeds a generator.

The census, the drain loop and the storms are the performance harness's
own (``benchmarks/perf_harness.py``, its ``heap`` section), so CI's
``--smoke`` gate and these tests count the same things.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet
from repro.sim.rand import RandomStream, SeedSequence
from repro.workloads.trace import replay_into_farm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import perf_harness  # noqa: E402

ATTACKER = IPAddress.parse("203.0.113.9")
DARKNET = IPAddress.parse("10.16.1.0").value


# ---------------------------------------------------------------------- #
# (a) The census equals the farm's own counts, and ends at zero
# ---------------------------------------------------------------------- #

def _census_since(before: dict) -> dict:
    """The census, less what earlier tests in this process left alive."""
    return {kind: n - before[kind] for kind, n in perf_harness.heap_census().items()}


def _assert_census_is_the_live_state(farm: Honeyfarm, before: dict) -> None:
    """Every per-VM and per-flow object alive is one the farm holds live.
    (Its own function, so the references it takes die with the call.)"""
    gateway, ladder, engine = farm.gateway, farm.ladder, farm.clone_engine
    census = _census_since(before)
    # Every VM alive is on a host; one still cloning has its CloneResult
    # (held by the pending completion event) and no guest yet.
    assert census["VirtualMachine"] == farm.live_vms
    assert census["GuestAddressSpace"] == farm.live_vms
    assert census["CloneResult"] == engine.in_flight
    assert census["GuestHost"] == farm.live_vms - engine.in_flight
    # Every flow record alive is in the table or behind a span-cache
    # entry, every session in the ladder or behind one; nothing else
    # (a result list, a closure, a stale index) holds either.
    lane = gateway._span_lane
    entries = list(lane.cache.values()) if lane is not None else []
    records = {id(record) for record in gateway.flows}
    records |= {id(entry[1]) for entry in entries}
    records |= {id(entry[4]) for entry in entries if entry[4] is not None}
    assert census["FlowRecord"] == len(records)
    sessions = {id(s): s for s in (ladder.sessions.values() if ladder else ())}
    sessions.update((id(entry[2]), entry[2]) for entry in entries)
    assert census["EmulatedSession"] == len(sessions)
    assert census["FlowState"] == sum(len(s.flows) for s in sessions.values())
    # ... and the cache is no bigger than shedding leaves it.
    assert len(entries) <= 2 * len(gateway.flows)


@pytest.mark.parametrize("name", ["vm_churn", "mixed_storm"])
def test_census_equals_live_state_mid_run_and_zero_after_drain(name):
    before = perf_harness.heap_census()
    run = perf_harness.e2e_workloads.prepare(name, perf_harness.HEAP_SEED, "smoke")
    farm = run.farm
    replay_into_farm(farm, run.trace, batched=True)

    farm.run(until=run.scenario.duration * 0.5)
    assert farm.live_vms > 0 and len(farm.gateway.flows) > 0
    _assert_census_is_the_live_state(farm, before)

    farm.run(until=run.scenario.duration + perf_harness.e2e_workloads.COOLDOWN_SECONDS)
    clones = farm.clone_engine.completed
    perf_harness.drain(farm)
    assert farm.live_vms == 0 and len(farm.gateway.flows) == 0
    assert farm.ladder is None or not farm.ladder.sessions
    assert clones == farm.clone_engine.completed > 0
    assert _census_since(before) == dict.fromkeys(perf_harness.HEAP_TYPES, 0)
    lane = farm.gateway._span_lane
    assert (lane is not None) == (name == "mixed_storm")
    assert lane is None or len(lane.cache) == 0


# ---------------------------------------------------------------------- #
# (b) Bytes per live VM, and bytes a reclaimed VM leaves behind
# ---------------------------------------------------------------------- #

def _farm(**overrides) -> Honeyfarm:
    settings = dict(
        prefixes=("10.16.0.0/16",), num_hosts=4, vm_image_bytes=4 << 20,
        max_vms_per_host=4096, idle_timeout_seconds=5.0,
        flow_idle_timeout_seconds=5.0, sweep_interval_seconds=1.0,
        clone_jitter=0.0, seed=3,
    )
    settings.update(overrides)
    return Honeyfarm(HoneyfarmConfig(**settings))


def _syn(index: int):
    """One SYN from the attacker to the ``index``-th dark address."""
    return tcp_packet(ATTACKER, IPAddress(DARKNET + index), 1024 + index % 60000, 445)


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_bytes_per_live_vm_and_bytes_left_behind():
    vms = 2000
    tracemalloc.start()
    try:
        farm = _farm()
        farm.run(until=0.5)
        before = _traced()
        for index in range(vms):
            farm.inject(_syn(index))
        farm.run(until=2.0)  # every clone finished, nothing idle yet
        assert farm.live_vms == vms and farm.clone_engine.in_flight == 0
        per_live_vm = (_traced() - before) / vms
        perf_harness.drain(farm)
        left_per_clone = (_traced() - before) / vms
    finally:
        tracemalloc.stop()
    # VM + guest + address space + devices + its flow record and indexes.
    # The parent spent 2.5 KiB of it on a seeded generator no uninfected
    # guest ever drew from.
    assert per_live_vm <= 5000, per_live_vm
    # What stays is output, and only output: one sample in each clone.*
    # histogram, the live-VM series' two points.
    assert left_per_clone <= 600, left_per_clone


@pytest.mark.slow
def test_ten_waves_of_clone_then_reclaim_hold_steady():
    """The soak: the same 300 addresses cloned and reclaimed ten times
    over. After wave 10 the process holds the objects it held after
    wave 2. Its traced bytes cannot be held to the same 10 %: output
    (a sample per clone in seven histograms, two series points) is a
    third of a kilobyte a clone by design, and over eight waves that is
    ten times this whole idle farm. So bytes are held to the
    per-clone output budget instead (the parent: 6.3 KB a clone)."""
    wave = 300
    held, tracked = [], []
    tracemalloc.start()
    try:
        farm = _farm()
        for __ in range(10):
            for index in range(wave):
                farm.inject(_syn(index))
            perf_harness.drain(farm)
            assert farm.live_vms == 0
            held.append(_traced())
            tracked.append(len(gc.get_objects()))
    finally:
        tracemalloc.stop()
    assert farm.clone_engine.completed == 10 * wave
    assert tracked[9] <= 1.10 * tracked[1], tracked
    assert (held[9] - held[1]) / (8 * wave) <= 600, held


# ---------------------------------------------------------------------- #
# (c) RandomStream: a generator only for a stream that draws
# ---------------------------------------------------------------------- #

def _generators() -> int:
    gc.collect()
    return sum(type(obj) is random.Random for obj in gc.get_objects())


def test_no_generator_exists_before_the_first_draw():
    before = _generators()
    seeds = SeedSequence(424742).spawn("guests")
    streams = [seeds.stream(f"guest-{n}") for n in range(100)]
    streams.append(RandomStream(7, name="direct"))
    streams.append(streams[0].fork("child"))
    assert len({stream.seed for stream in streams}) == len(streams)
    assert pickle.loads(pickle.dumps(streams[3])).seed == streams[3].seed
    assert _generators() == before
    streams[5].random()
    assert _generators() == before + 1


#: sha256 over ``repr`` of the first 1 000 draws of each distribution from
#: ``SeedSequence(424742).spawn("guests").stream("guest-17")``, a fresh
#: stream per distribution, recorded at the parent commit (generator
#: seeded in ``__init__``).
PARENT_DRAWS = {
    "uniform": "686f594edac091ed",
    "randint": "4eb6eaf18ae85c60",
    "random": "e62360604a7dc96f",
    "bernoulli": "14a22ef31ed052d0",
    "choice": "d612478c16c5cefa",
    "sample": "fdea013d03bce16f",
    "shuffle": "3fab972cc6a2556e",
    "weighted_choice": "52adfad5bc3493b3",
    "exponential": "d3f9cf1b5be1f9d6",
    "pareto": "2434126de1542c60",
    "bounded_pareto": "a97e3baf3df3285b",
    "lognormal": "2534dad068e11c6a",
    "normal": "e3ad34aed8c294d1",
    "geometric": "4b156cc1285150b4",
    "zipf_index": "984ef775b813016b",
    "poisson": "3c17702f1eadbcdc",
    "fork": "76f3e2b69422b8c6",
}

def _shuffled(stream: RandomStream) -> list:
    seq = list(range(9))
    stream.shuffle(seq)
    return seq


DRAWS = {
    "uniform": lambda s: s.uniform(-2.0, 3.5),
    "randint": lambda s: s.randint(-5, 1 << 40),
    "random": lambda s: s.random(),
    "bernoulli": lambda s: s.bernoulli(0.3),
    "choice": lambda s: s.choice("abcdefg"),
    "sample": lambda s: s.sample(range(50), 4),
    "shuffle": _shuffled,
    "weighted_choice": lambda s: s.weighted_choice("xyz", (0.2, 0.5, 0.3)),
    "exponential": lambda s: s.exponential(4.0),
    "pareto": lambda s: s.pareto(1.3, 2.0),
    "bounded_pareto": lambda s: s.bounded_pareto(1.1, 1.0, 500.0),
    "lognormal": lambda s: s.lognormal(0.0, 0.5),
    "normal": lambda s: s.normal(1.0, 2.0),
    "geometric": lambda s: s.geometric(0.2),
    "zipf_index": lambda s: s.zipf_index(12, 1.2),
    "poisson": lambda s: (s.poisson(3.5), s.poisson(900.0)),
    "fork": lambda s: s.fork("child").random(),
}


def _guest_stream() -> RandomStream:
    return SeedSequence(424742).spawn("guests").stream("guest-17")


def _draw_digest(draw, stream: RandomStream, count: int = 1000) -> str:
    drawn = [draw(stream) for __ in range(count)]
    return hashlib.sha256(repr(drawn).encode()).hexdigest()[:16]


def test_draw_sequences_are_the_parents():
    assert {
        name: _draw_digest(draw, _guest_stream()) for name, draw in DRAWS.items()
    } == PARENT_DRAWS


def test_a_stream_pickled_mid_sequence_continues_it():
    # The federation ships telescopes (and their streams) to workers.
    stream = _guest_stream()
    reference = _guest_stream()
    head = [stream.lognormal(0.0, 1.0) for __ in range(37)]
    shipped = pickle.loads(pickle.dumps(stream))
    tail = [shipped.lognormal(0.0, 1.0) for __ in range(100)]
    assert head + tail == [reference.lognormal(0.0, 1.0) for __ in range(137)]
    assert tail == [stream.lognormal(0.0, 1.0) for __ in range(100)]
    # Shipped before its first draw, it starts the same sequence there.
    unused = pickle.loads(pickle.dumps(_guest_stream()))
    fresh = _guest_stream()
    assert [unused.random() for __ in range(5)] == [fresh.random() for __ in range(5)]
