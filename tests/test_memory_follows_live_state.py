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
from repro.core.flash_clone import CloneResult
from repro.core.honeyfarm import Honeyfarm
from repro.fidelity.emulator import AddressTable, EmulatedSession
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_TCP, tcp_packet
from repro.services.guest import GuestHost
from repro.services.personality import default_registry
from repro.sim.batch import PacketColumns, TraceRecord
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStream, SeedSequence
from repro.vmm.memory import GuestAddressSpace, MachineMemory
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import perf_harness  # noqa: E402

ATTACKER = IPAddress.parse("203.0.113.9")
DARKNET = IPAddress.parse("10.16.1.0")


# ---------------------------------------------------------------------- #
# (a) The census equals the farm's own counts, and ends at zero
# ---------------------------------------------------------------------- #

def _census_since(before: dict) -> dict:
    """The census, less what earlier tests in this process left alive."""
    return {kind: n - before[kind] for kind, n in perf_harness.heap_census().items()}


def _assert_census_is_the_live_state(farm: Honeyfarm, before: dict) -> None:
    """Every per-VM and per-address object alive is one the farm holds
    live, and every flow is a row. (Its own function, so the references
    it takes die with the call.)"""
    gateway, engine = farm.gateway, farm.clone_engine
    census = _census_since(before)
    # Every VM alive is on a host; one still cloning has its CloneResult
    # (held by the pending completion event) and no guest yet.
    assert census["VirtualMachine"] == farm.live_vms
    assert census["GuestAddressSpace"] == farm.live_vms
    assert census["CloneResult"] == engine.in_flight
    assert census["GuestHost"] == farm.live_vms - engine.in_flight
    # A flow is a row: the table's live rows are its flows, and the only
    # FlowRecord views alive are the ones held with the packets queued on
    # the address table's chains.
    flows = gateway.flows
    assert perf_harness.table_footprint(flows)["live_rows"] == len(flows)
    assert sum(1 for serial in flows.serial if serial) == len(flows)
    gc.collect()
    views = sum(type(obj).__name__ == "FlowRecord" for obj in gc.get_objects())
    assert views == gateway.pending_packet_count
    # A covered address is a row too, and a session a view of it that
    # lives only as long as the call using it: the address table's live
    # rows are the VMs bound and the ladder's sessions (a row with no
    # session has stamp 0), and no view is alive.
    assert census["EmulatedSession"] == 0
    addresses = gateway.addresses
    assert perf_harness.table_footprint(addresses)["live_rows"] == len(addresses)
    assert sum(1 for serial in addresses.serial if serial) == len(addresses)
    assert all(
        addresses.vm[row] is not None or addresses.stamp[row]
        for row in addresses.index.values()
    )
    # Every held packet is on a live row's chain, in a replay window or
    # queued for a cloning VM: a row lets go of the ones it held as its
    # session expires or its VM takes or drops them.
    assert sum(addresses.holding.values()) == len(addresses.held) - views
    assert all(addresses.serial[row] for row in addresses.holding)


def test_census_counts_one_live_instance_of_each_type_as_one():
    # Slotted objects have no ``__dict__``; the census must still see
    # each of them (``gc.get_objects`` lists only collector-tracked ones)
    # while ``alive`` holds them.
    before = perf_harness.heap_census()
    registry = default_registry()
    snapshot = ReferenceSnapshot(MachineMemory(64 << 20), image_bytes=4 << 20)
    vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), ATTACKER, 0.0, vm_id=1)
    sessions = AddressTable(personality=registry.get("windows-default"))
    alive = (
        vm,
        GuestHost(vm, registry.get("windows-default"), registry.catalog,
                  Simulator(), RandomStream(1)),
        CloneResult(vm=vm, requested_at=0.0, completed_at=0.0),
        EmulatedSession(sessions, sessions.open(DARKNET, 0.0)),
    )
    assert _census_since(before) == dict.fromkeys(perf_harness.HEAP_TYPES, 1)
    assert vm.guest is alive[1]  # the guest binds itself to the slotted VM


@pytest.mark.parametrize("name", ["vm_churn", "mixed_storm"])
def test_census_equals_live_state_mid_run_and_zero_after_drain(name):
    before = perf_harness.heap_census()
    run = perf_harness.e2e_workloads.prepare(name, perf_harness.HEAP_SEED, "smoke")
    farm = run.farm
    stream = farm.attach_arrival_columns(run.trace)
    # Materialized and not yet delivered: nothing between two drains,
    # whichever lane consumed a row and whether or not a promotion
    # handed its buffer over.
    undelivered = stream._columns.packets

    farm.run(until=run.scenario.duration * 0.5)
    assert farm.live_vms > 0 and len(farm.gateway.flows) > 0
    _assert_census_is_the_live_state(farm, before)
    assert not undelivered

    farm.run(until=run.scenario.duration + perf_harness.e2e_workloads.COOLDOWN_SECONDS)
    clones = farm.clone_engine.completed
    perf_harness.drain(farm)
    assert farm.live_vms == 0 and len(farm.gateway.flows) == 0
    assert not (farm.gateway.addresses or farm.gateway.addresses.held)
    assert clones == farm.clone_engine.completed > 0
    assert _census_since(before) == dict.fromkeys(perf_harness.HEAP_TYPES, 0)
    for table in (farm.gateway.flows, farm.gateway.addresses):
        assert perf_harness.table_footprint(table) == {"live_rows": 0, "column_bytes": 0}
    assert (farm.gateway._span_lane is not None) == (name == "mixed_storm")
    assert stream.remaining == 0
    assert not undelivered


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


#: Traced bytes per uninfected running clone — VM, NIC, disk, address
#: space with its boot run, guest and random stream — as
#: :func:`test_an_uninfected_clone_holds_only_what_it_changed` measures
#: them: 1 887 when each was an object with an instance dict and the
#: guest carried its own vulnerability dict, disk-overlay set and
#: follow-up dict; 976 slotted, with those allocated on first use.
BYTES_PER_UNINFECTED_CLONE = 1300


def _own_containers(guest: GuestHost, other: GuestHost) -> list:
    """The containers ``guest`` references that ``other`` does not."""
    shared = {id(ref) for ref in gc.get_referents(other)}
    return [
        ref for ref in gc.get_referents(guest)
        if isinstance(ref, (dict, list, set, tuple)) and id(ref) not in shared
    ]


def test_an_uninfected_clone_holds_only_what_it_changed():
    clones = 2000
    registry = default_registry()
    windows = registry.get("windows-default")
    sim = Simulator()
    snapshot = ReferenceSnapshot(MachineMemory(1 << 30), image_bytes=4 << 20)
    seeds = SeedSequence(3).spawn("guests")
    behaviors: dict = {}
    addresses = [IPAddress(DARKNET + index) for index in range(clones)]
    guests = []
    tracemalloc.start()
    try:
        before = _traced()
        for index, ip in enumerate(addresses):
            vm = VirtualMachine(
                snapshot, GuestAddressSpace(snapshot.image), ip, 0.0, vm_id=index + 1
            )
            vm.start(0.0)
            guest = GuestHost(vm, windows, registry.catalog, sim,
                              seeds.stream(f"guest-{index}"), worm_behaviors=behaviors)
            # A probe: the guest boots its working set and answers.
            assert guest.handle_packet(tcp_packet(ATTACKER, ip, 1024, 445), 0.0)
            guests.append(guest)
        per_clone = (_traced() - before) / clones
    finally:
        tracemalloc.stop()
    assert per_clone <= BYTES_PER_UNINFECTED_CLONE, per_clone
    first, second = guests[:2]
    vm = first.vm
    for obj in (vm, vm.vif, vm.disk, vm.address_space, first, first.rng):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    # What the personality fixes is shared: neither of two guests of one
    # personality holds a container of its own — no vulnerability table,
    # no empty follow-up table.
    assert not first.infected and not second.infected
    assert _own_containers(first, second) == []
    assert _own_containers(second, first) == []


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


#: Traced bytes per live emulated flow at the busiest second of the smoke
#: ``radiation_span`` storm, measured by ``perf_harness.heap_profile``:
#: 1 134 when a flow was a FlowRecord + FlowKey, a FlowState and an
#: 8-slot span-cache list; 998 as a row of the flow table; 881 with a
#: span-cache tuple and a key tuple of its own per flow; 681 with the
#: verdict on the row and the trace's tuple as the key.
BYTES_PER_EMULATED_FLOW = 760


def test_bytes_per_live_emulated_flow():
    doc = perf_harness.heap_profile(
        "radiation_span", "smoke", "live_flows", "bytes_per_live_flow"
    )
    assert doc["busiest_second"]["live_flows"] > 10_000
    assert doc["bytes_per_live_flow"] <= BYTES_PER_EMULATED_FLOW, doc["bytes_per_live_flow"]
    assert doc["flow_table_after_drain"] == {"live_rows": 0, "column_bytes": 0}


#: Radiation flows :func:`test_an_emulated_flow_allocates_only_its_row`
#: runs, each one SYN from its own source above the darknet.
EMULATED_FLOWS = 20_000
#: Traced bytes per such flow: 406 when the span lane kept a cache entry
#: per flow and the flow table a key tuple of its own; 194 with the
#: verdict on the row and the trace's tuple as the key (the row's eight
#: columns, its key and index slots, its row id and its session's flow
#: entry).
BYTES_PER_RADIATION_FLOW = 250


def test_an_emulated_flow_allocates_only_its_row():
    """A flow from above the darknet is keyed by the trace's own arrival
    tuple, and the span lane's verdict is a column of its row: serving it
    leaves no tuple of its own anywhere."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), num_hosts=2, ladder=True,
        containment="drop-all", seed=7,
    ))
    trace = PacketColumns.from_records(
        TraceRecord(
            time=1.0 + k * 1e-4, src=f"198.51.{k >> 8}.{k & 255}",
            dst=f"10.16.0.{k % 16 + 1}", protocol=PROTO_TCP,
            src_port=1024 + k, dst_port=80,
        )
        for k in range(EMULATED_FLOWS)
    )
    farm.attach_arrival_columns(trace)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        farm.run(until=5.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    flows = farm.gateway.flows
    assert farm.gateway.span_resolves == len(flows) == EMULATED_FLOWS
    assert all(flows.keys[flows.index[key]] is key for key in trace.keys)
    key_bytes = sys.getsizeof(trace.keys[0])
    tuples = sum(1 for block in snapshot.traces if block.size == key_bytes)
    assert tuples < EMULATED_FLOWS // 100, tuples
    assert held / EMULATED_FLOWS <= BYTES_PER_RADIATION_FLOW, held / EMULATED_FLOWS


#: Dark addresses :func:`test_an_emulated_address_is_a_row` probes, each
#: with one flow of three SYNs (a scanner's connect with two retries).
EMULATED_ADDRESSES = 8_000
#: Traced bytes per such address, its flow row included: 745 when its
#: session was an object with a flows dict, a handoff-buffer array and a
#: boxed ``last_seen``; 521 with the one flow kept as its key tuple; 397
#: since the row also holds the address's VM binding and clone queue.
BYTES_PER_EMULATED_ADDRESS = 400


def test_an_emulated_address_is_a_row():
    """An address the span lane serves is a row of the gateway's address
    table: no session object, no flows container for its one flow, no
    per-address handoff buffer."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/16",), num_hosts=2, ladder=True,
        containment="drop-all", seed=7,
    ))
    trace = PacketColumns.from_records(
        TraceRecord(
            time=1.0 + k * 1e-4 + retry * 0.1, src=f"198.51.{k >> 8}.{k & 255}",
            dst=str(IPAddress(DARKNET + k)), protocol=PROTO_TCP,
            src_port=1024 + k, dst_port=445,
        )
        for k in range(EMULATED_ADDRESSES)
        for retry in range(3)
    ).sorted_by_time()
    farm.attach_arrival_columns(trace)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        farm.run(until=5.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    sessions = farm.ladder.sessions
    assert len(sessions) == len(farm.gateway.flows) == EMULATED_ADDRESSES
    assert farm.gateway.span_resolves == EMULATED_ADDRESSES
    assert all(session.buffered_count == 3 for session in sessions.values())
    assert held / EMULATED_ADDRESSES <= BYTES_PER_EMULATED_ADDRESS, (
        held / EMULATED_ADDRESSES
    )


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
    "bounded_pareto": "a97e3baf3df3285b",
    "lognormal": "2534dad068e11c6a",
    "normal": "e3ad34aed8c294d1",
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
    "bounded_pareto": lambda s: s.bounded_pareto(1.1, 1.0, 500.0),
    "lognormal": lambda s: s.lognormal(0.0, 0.5),
    "normal": lambda s: s.normal(1.0, 2.0),
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
