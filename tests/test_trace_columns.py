"""The columnar trace: one immutable trace, many replays.

``PacketColumns`` is the only in-memory trace. These tests hold the three
things that has to mean: it reads like the record list it replaced
(sequence protocol, equality, JSONL round trip), one trace object can
drive any number of farms without them sharing a mutable ``Packet``, and
neither the trace nor an absorbed packet costs an object per packet.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle
import tracemalloc
from array import array
from pathlib import Path

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.core.parallel import ParallelFederation
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.sim import batch
from repro.sim.batch import PacketColumns, TraceRecord
from repro.sim.engine import SimulationError
from repro.testing.fedscenario import FederationScenario
from repro.testing.scenario import Scenario, WormWave
from repro.testing.worlds import WorldSpec, run_world
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import TraceReader, TraceWriter, replay_into_farm

GOLDEN_PATH = Path(__file__).parent / "golden" / "shared_trace_worlds.txt"

#: Radiation the ladder absorbs, exploits that promote (so handoff
#: buffers are replayed) and a wave that infects: every way a packet is
#: materialized from a row.
SCENARIO = Scenario(
    seed=31, prefix_bits=24, duration=8.0, containment="reflect",
    telescope_rate=10.0, max_packets=500,
    worm_waves=(WormWave("slammer", start=1.0, duration=4.0, sources=2, rate=3.0),),
    name="shared-trace",
)


def _syn(time, dst="10.16.0.1", src="203.0.113.9", src_port=1234, **fields):
    return TraceRecord(
        time=time, src=src, dst=dst, protocol=PROTO_TCP,
        src_port=src_port, dst_port=445, **fields,
    )


def _mixed_trace() -> PacketColumns:
    """A generated trace with payload rows and explicit-flag
    (backscatter) rows as well as bare SYNs."""
    trace = TelescopeWorkload(
        [Prefix.parse("10.16.0.0/16")], TelescopeConfig(seed=5)
    ).generate(20.0)
    assert any(trace.payloads) and any(trace.tcp_flags)
    assert any(key[4] == PROTO_UDP for key in trace.keys)
    return trace


# ---------------------------------------------------------------------- #
# One trace, many farms
# ---------------------------------------------------------------------- #


def _observation_digest(obs) -> str:
    data = dataclasses.asdict(obs)
    del data["world"]  # the spec's name, not an observation
    data["event_counts"] = sorted(
        (list(key), count) for key, count in obs.event_counts.items()
    )
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: The worlds one shared trace object is replayed into, in this order.
SHARED_WORLDS = (
    WorldSpec("ladder-batched", ladder=True, batched=True),
    WorldSpec("ladder-batched-again", ladder=True, batched=True),
    WorldSpec("ladder-per-event", ladder=True),
    WorldSpec("delta-batched", batched=True),
)


def test_shared_trace_worlds_match_the_row_list_observations(golden):
    """Every world observes what it observed when the trace was a list
    of rows and each replay copied it (golden recorded at that commit),
    and the trace comes out of four replays equal to a fresh one."""
    trace = SCENARIO.build_trace()
    lines = [
        f"{spec.name} {_observation_digest(run_world(SCENARIO, spec, trace=trace))}\n"
        for spec in SHARED_WORLDS
    ]
    golden.check(GOLDEN_PATH, "".join(lines))
    batched, again, per_event, __ = (line.split()[1] for line in lines)
    assert batched == again
    assert trace == SCENARIO.build_trace()


@pytest.mark.parametrize("second_batched", [True, False], ids=["batched", "per-event"])
def test_two_farms_never_share_a_packet(monkeypatch, second_batched):
    """``Packet`` is mutable and numbered from a process-global counter:
    a second replay of the same trace object must build its own, exactly
    as many as it would from a fresh trace."""
    built = []
    row_packet = batch._row_packet

    def recording(*args):
        packet = row_packet(*args)
        built.append(packet)
        return packet

    monkeypatch.setattr(batch, "_row_packet", recording)

    def replay(trace, batched):
        del built[:]
        farm = Honeyfarm(SCENARIO.farm_config(ladder=True))
        replay_into_farm(farm, trace, batched=batched)
        farm.run(until=SCENARIO.duration + 5.0)
        assert farm.metrics.counters()["ladder.handoff_packets_replayed"] > 0
        return list(built)

    trace = SCENARIO.build_trace()
    first = replay(trace, True)
    second = replay(trace, second_batched)
    alone = replay(SCENARIO.build_trace(), second_batched)

    assert first and len(second) == len(alone)
    assert not {id(p) for p in first} & {id(p) for p in second}
    # The trace's own cache was never the replays'.
    assert not trace.packets
    assert trace == SCENARIO.build_trace()


def test_generated_traces_carry_address_values():
    partitioned = FederationScenario(
        seed=7, shards=2, shard_bits=26, duration=4.0, telescope_rate=2048.0,
        probes_max=50, max_packets_per_shard=120, name="partitioned",
    ).telescope().build_all()
    for trace in (_mixed_trace(), SCENARIO._wave_records(), SCENARIO.build_trace(),
                  *partitioned):
        assert len(trace) and all(type(field) is int for key in trace.keys for field in key)


@pytest.mark.parametrize(
    "ladder, batched",
    [(True, True), (False, True), (True, False)],
    ids=["span-lane", "per-packet-lane", "per-event"],
)
def test_a_replay_parses_no_address(monkeypatch, ladder, batched):
    """Rows reach the farm as address values: nothing on the replay
    path reads a dotted quad."""
    trace = SCENARIO.build_trace()
    farm = Honeyfarm(SCENARIO.farm_config(ladder=ladder))

    def parse(cls, text):
        raise AssertionError(f"parsed {text!r} during a replay")

    monkeypatch.setattr(IPAddress, "parse", classmethod(parse))
    replay_into_farm(farm, trace, batched=batched)
    farm.run(until=SCENARIO.duration + 5.0)
    assert farm.metrics.counters()["gateway.packets_in"] >= len(trace)
    assert (farm.gateway.span_resolves > 0) == (ladder and batched)


def test_attachment_shares_columns_and_owns_its_caches():
    trace = SCENARIO.build_trace()
    plain, shifted = trace.attachment(), trace.attachment(100.0)
    for attached in (plain, shifted):
        assert attached.keys is trace.keys and attached.payloads is trace.payloads
        assert attached.sizes is trace.sizes and attached.tcp_flags is trace.tcp_flags
        assert attached.packets is not trace.packets
    assert plain.times is trace.times
    assert list(shifted.times) == [t + 100.0 for t in trace.times]
    packet = plain.packet_at(3)
    assert plain.packet_at(3) is packet
    assert shifted.packet_at(3) is not packet
    assert 3 not in trace.packets


def test_time_offset_shifts_both_lanes_alike():
    trace = SCENARIO.build_trace()

    def counters(batched):
        farm = Honeyfarm(SCENARIO.farm_config(ladder=True))
        farm.run(until=100.0)
        assert replay_into_farm(
            farm, trace, time_offset=100.0, batched=batched
        ) == len(trace)
        farm.run(until=99.0 + trace.times[0])
        assert "gateway.packets_in" not in farm.metrics.counters()
        farm.run(until=105.0 + SCENARIO.duration)
        return farm.metrics.counters()

    batched = counters(True)
    assert batched["gateway.packets_in"] >= len(trace)
    assert batched == counters(False)
    assert trace.times[0] < SCENARIO.duration  # the trace itself never moved


@pytest.mark.parametrize("batched", [True, False])
def test_two_traces_feeding_one_session_hand_off_in_arrival_order(batched):
    """A session's buffered row indices belong to one attachment; when a
    second trace reaches the same address the older ones are materialized
    first, so the handoff is still the arrivals in order."""
    target = "10.16.0.7"
    first = [_syn(1.0, target, src_port=1000), _syn(1.2, target, src_port=1001),
             _syn(2.0, target, src_port=1002, payload="exploit:sasser", size=440)]
    second = [_syn(1.1, target, src_port=2000), _syn(1.3, target, src_port=2001)]
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), ladder=True, seed=3,
    ))
    replay_into_farm(farm, first, batched=batched)
    replay_into_farm(farm, second, batched=batched)
    farm.run(until=2.0)
    addresses = farm.gateway.addresses
    replay = addresses.buffered_packets(addresses.index[IPAddress.parse(target)])
    assert [p.src_port for p in replay] == [1000, 2000, 1001, 2001]
    if batched:
        assert farm.gateway.span_resolves == 4


def test_out_of_order_trace_names_the_first_offending_item(small_farm):
    rows = [_syn(1.0), _syn(2.0), _syn(1.5), _syn(0.5)]
    with pytest.raises(SimulationError, match=r"item 2 at t=1\.5 after t=2\.0"):
        replay_into_farm(small_farm, rows, batched=True)


def test_malformed_address_fails_before_any_packet_moves():
    """A hand-built row's addresses are parsed where it becomes columns,
    so a bad one fails the replay call itself, on either lane, not a
    packet mid-run."""
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), ladder=True,
    ))
    rows = [_syn(1.0), _syn(1.5, dst="10.16.0.999")]
    for batched in (True, False):
        with pytest.raises(ValueError, match="10.16.0.999"):
            replay_into_farm(farm, rows, batched=batched)
    with pytest.raises(AttributeError):
        PacketColumns.from_records([_syn(1.0, src=None)])
    farm.run(until=2.0)
    assert "gateway.packets_in" not in farm.metrics.counters()


def test_port_range_is_checked_when_the_packet_is_materialized():
    trace = PacketColumns.from_records([_syn(1.0, src_port=70000)])
    assert trace[0].src_port == 70000  # a row is just a row
    with pytest.raises(ValueError, match="port out of range"):
        trace.packet_at(0)
    with pytest.raises(ValueError, match="port out of range"):
        trace[0].to_packet()


# ---------------------------------------------------------------------- #
# A read-only sequence of rows
# ---------------------------------------------------------------------- #


class TestSequenceOfRows:
    def test_rows_round_trip_through_from_records(self):
        trace = _mixed_trace()
        rows = list(trace)
        assert all(isinstance(row, TraceRecord) for row in rows[:5])
        assert len(rows) == len(trace)
        rebuilt = PacketColumns.from_records(rows)
        assert rebuilt == trace and rebuilt is not trace
        assert trace == rows and rows == trace  # either side, against a list
        assert trace != rows[:-1]
        assert trace != rows[:-1] + [dataclasses.replace(rows[-1], size=41)]

    def test_from_records_returns_a_trace_as_is(self):
        trace = _mixed_trace()
        assert PacketColumns.from_records(trace) is trace

    def test_indexing_and_slices(self):
        trace = _mixed_trace()
        rows = list(trace)
        assert trace[0] == rows[0] and trace[-1] == rows[-1]
        assert trace[17] == rows[17]
        with pytest.raises(IndexError):
            trace[len(trace)]
        middle = trace[10:20]
        assert isinstance(middle, PacketColumns)
        assert middle == rows[10:20] and len(middle) == 10
        assert trace[::7] == rows[::7]
        assert trace[:0] == [] and len(trace[:0]) == 0
        assert rows[5] in trace and trace.index(rows[5]) <= 5

    def test_row_fields_match_the_columns(self):
        trace = _mixed_trace()
        i = next(i for i, flags in enumerate(trace.tcp_flags) if flags)
        row = trace[i]
        src, src_port, dst, dst_port, protocol = trace.keys[i]
        assert (row.src, row.dst) == (str(IPAddress(src)), str(IPAddress(dst)))
        assert (row.src_port, row.dst_port, row.protocol) == (src_port, dst_port, protocol)
        assert row.key == trace.keys[i]
        assert (row.time, row.payload, row.size, row.tcp_flags) == (
            trace.times[i], trace.payloads[i], trace.sizes[i], trace.tcp_flags[i],
        )
        a, b = trace.packet_at(i), row.to_packet()
        assert (a.src, a.dst, a.flags, a.size) == (b.src, b.dst, b.flags, b.size)

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            PacketColumns([0.0, 1.0], [("a", 1, "b", 2, 6)], [""], [40], [0])

    def test_sort_is_stable_and_cuts(self):
        rows = [_syn(2.0, size=1), _syn(1.0, size=2), _syn(2.0, size=3), _syn(1.0, size=4)]
        ordered = PacketColumns.from_records(rows).sorted_by_time()
        assert ordered == sorted(rows, key=lambda row: row.time)
        assert [row.size for row in ordered] == [2, 4, 1, 3]
        assert PacketColumns.from_records(rows).sorted_by_time(3).sizes == [2, 4, 1]

    def test_sort_cuts_to_any_size_and_rejects_a_negative_limit(self):
        rows = [_syn(2.0, size=1), _syn(1.0, size=2), _syn(2.0, size=3)]
        trace = PacketColumns.from_records(rows)
        assert trace.sorted_by_time(1).sizes == [2] and trace.sorted_by_time(0).sizes == []
        # -5 used to drop the last five rows.
        with pytest.raises(ValueError, match="limit"):
            trace.sorted_by_time(-1)

    def test_pickle_carries_the_columns_and_not_the_caches(self):
        attached = _mixed_trace().attachment()
        attached.packet_at(0)
        clone = pickle.loads(pickle.dumps(attached))
        assert clone == attached
        assert not clone.packets
        # A burst's packets share one key tuple, across the pipe too
        # (pickle memoises tuples; an int is never shared that way).
        shared = len({id(key) for key in attached.keys})
        assert shared < len(attached.keys)
        assert len({id(key) for key in clone.keys}) == shared


def test_spawned_workers_replay_pickled_traces_like_forked_ones():
    """The spawn start method pickles each shard's trace into its worker;
    the reports must be the fork lane's."""
    scenario = FederationScenario(
        seed=7, shards=2, shard_bits=26, duration=4.0, latency=0.25,
        telescope_rate=2048.0, exploit_fraction=0.4, probes_max=50,
        max_packets_per_shard=120, containment="reflect",
        worms=(("slammer", 2.0),), name="spawned",
    )
    shard_records = scenario.telescope().build_all()
    assert all(isinstance(trace, PacketColumns) and len(trace) for trace in shard_records)

    def reports(start_method):
        return ParallelFederation(
            scenario.shard_configs(), scenario.interlink(), 2,
            shard_records=shard_records, worms=scenario.worms,
            start_method=start_method,
        ).run(scenario.duration).reports

    assert reports("spawn") == reports("fork")


def test_every_constructor_builds_the_same_column_types(tmp_path):
    """``==`` compares the columns, and an ``array('d')`` never equals a
    list: whoever builds a trace — a generator, a JSONL reader, ``+``,
    a slice, an attachment, a sort, unpickling — builds the same types."""
    trace = TelescopeWorkload(
        [Prefix.parse("10.16.0.0/16")], TelescopeConfig(seed=5)
    ).generate(5.0)
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path) as writer:
        writer.write_all(trace)
    back = TraceReader(path).read_all()
    assert back == trace
    extra = PacketColumns.from_records([_syn(trace.times[-1] + 1.0)])
    joined = trace + extra
    assert back + extra == joined and joined[:len(trace)] == trace
    assert pickle.loads(pickle.dumps(joined)) == joined
    by_hand = PacketColumns(
        list(trace.times), trace.keys, trace.payloads, trace.sizes, trace.tcp_flags
    )
    assert by_hand == trace
    for built in (
        trace, back, extra, joined, by_hand, trace[3:9], trace.attachment(1.0),
        trace.sorted_by_time(), pickle.loads(pickle.dumps(trace)),
    ):
        assert [type(column) for column in built._columns()] == [array, list, list, list, list]
        assert built.times.typecode == "d"


# ---------------------------------------------------------------------- #
# JSONL straight from the columns
# ---------------------------------------------------------------------- #


class TestJsonl:
    def test_round_trip_keeps_every_column(self, tmp_path):
        trace = _mixed_trace()
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            assert writer.write_all(trace) == len(trace)
        back = TraceReader(path).read_all()
        assert isinstance(back, PacketColumns)
        assert back == trace
        assert back.tcp_flags == trace.tcp_flags and back.payloads == trace.payloads

    def test_lines_are_the_row_dataclass_as_json(self, tmp_path):
        """The reference writer: ``dataclasses.asdict`` per row."""
        trace = _mixed_trace()[:200]
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            writer.write_all(trace)
            writer.write(trace[0])
        expected = "".join(
            json.dumps(dataclasses.asdict(row), separators=(",", ":")) + "\n"
            for row in [*trace, trace[0]]
        )
        assert path.read_text() == expected

    def test_malformed_line_is_reported_as_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with TraceWriter(path) as writer:
            writer.write_all(_mixed_trace()[:2])
        path.write_text(path.read_text() + '{"time": 1.0, "src": "1.2.3.4"\n')
        with pytest.raises(ValueError, match=rf"{path}:3: malformed trace record"):
            TraceReader(path).read_all()


# ---------------------------------------------------------------------- #
# Memory: a row is not an object
# ---------------------------------------------------------------------- #


def test_generated_trace_costs_under_200_bytes_a_packet():
    workload = TelescopeWorkload(
        [Prefix.parse("10.16.0.0/16")],
        TelescopeConfig(seed=9, sources_per_second_per_slash16=400.0,
                        exploit_source_fraction=0.0, probes_max=200),
    )
    gc.collect()
    tracemalloc.start()
    try:
        trace = workload.generate(20.0)
        held, __ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) >= 50_000
    assert held / len(trace) <= 200, f"{held / len(trace):.0f} B per packet"


def test_span_lane_state_is_per_flow_not_per_packet():
    """10 000 empty-payload packets over 50 flows, all absorbed by the
    span lane: what the run leaves behind is flow and session state, not
    a gc-tracked object per absorbed packet."""
    flows = [(f"198.51.100.{i + 1}", f"10.16.0.{i + 1}") for i in range(50)]
    trace = PacketColumns.from_records(
        _syn(1.0 + k * 0.001, dst=dst, src=src)
        for k, (src, dst) in enumerate(flows * 200)
    )
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/24",), ladder=True,
        containment="drop-all", seed=3,
    ))
    farm.run(until=0.5)
    gc.collect()
    before = len(gc.get_objects())
    replay_into_farm(farm, trace, batched=True)
    farm.run(until=12.0)
    gc.collect()
    grown = len(gc.get_objects()) - before

    assert farm.metrics.counters()["gateway.emulated"] == 10_000
    assert farm.gateway.span_resolves == 50
    sessions = farm.ladder.sessions.values()
    assert sum(session.buffered_count for session in sessions) == 50 * 64
    assert grown < 2_000, f"{grown} new gc-tracked objects"
