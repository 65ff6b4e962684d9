"""Batched arrival streams: ordering contract, accounting, and boundary
semantics.

The contract under test (see ``docs/PERFORMANCE.md``): merging a
:class:`PacketArrivalStream` into ``Simulator.run`` is a *pure mechanical
transform* — every observable (firing order, clock, ``events_processed``,
flow-table state) is bit-identical to scheduling one event per packet.
The exact-boundary tests pin the part that is easiest to get wrong: a
flow whose expiry falls on a batch timestamp must expire in exactly the
slot the per-event loop would have used.
"""

from __future__ import annotations

import pytest

from repro.net.addr import IPAddress
from repro.net.flow import FlowTable
from repro.net.packet import PROTO_TCP, Packet, TcpFlags
from repro.sim.batch import PacketArrivalStream, PacketColumns, TraceRecord
from repro.sim.engine import SimulationError, Simulator


def _packet(i: int = 0, src_port: int = 40000) -> Packet:
    return Packet(
        src=IPAddress.parse("192.0.2.1"),
        dst=IPAddress.parse(f"10.0.{i // 256}.{i % 256}"),
        protocol=PROTO_TCP,
        src_port=src_port,
        dst_port=80,
        flags=TcpFlags.SYN,
    )


def _stream(sim, times, deliver, packets=None):
    """A stream over the trace holding ``packets`` (default: packet ``i``
    goes to the ``i``-th address) at ``times``."""
    if packets is None:
        packets = [_packet(i) for i in range(len(times))]
    columns = PacketColumns.from_records(
        TraceRecord.from_packet(t, p) for t, p in zip(times, packets)
    )
    return PacketArrivalStream(sim, columns, deliver)


def _index(packet: Packet) -> int:
    """Which ``_packet(i)`` a delivered packet is, read off its fields."""
    return packet.dst & 0xFFFF


def _attach(sim, times, log, tag="pkt"):
    stream = _stream(sim, times, lambda p: log.append((tag, sim.now, _index(p))))
    sim.attach_stream(stream)
    return stream


class TestStreamValidation:
    def test_decreasing_times_rejected(self, sim):
        with pytest.raises(SimulationError):
            _stream(sim, [1.0, 0.5], lambda p: None)

    def test_attach_in_past_rejected(self):
        sim = Simulator(start_time=5.0)
        stream = _stream(sim, [1.0], lambda p: None)
        with pytest.raises(SimulationError):
            sim.attach_stream(stream)

    def test_reserve_seqs_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.reserve_seqs(-1)

    def test_reserve_seqs_blocks_are_contiguous(self, sim):
        base_a = sim.reserve_seqs(3)
        base_b = sim.reserve_seqs(2)
        assert base_b == base_a + 3
        # The next ordinary event takes the seq right after the blocks.
        event = sim.schedule_at(0.0, lambda: None)
        assert event.seq == base_b + 2


class TestOrderingEquivalence:
    """Stream arrivals fire exactly where per-event scheduling would."""

    def _reference(self, times, event_specs):
        """Per-event control run: everything through schedule_at."""
        sim = Simulator()
        log = []
        for t, tag in event_specs["before"]:
            sim.schedule_at(t, log.append, (tag, t))
        for i, t in enumerate(times):
            sim.schedule_at(t, lambda i=i, t=t: log.append(("pkt", sim.now, i)))
        for t, tag in event_specs["after"]:
            sim.schedule_at(t, log.append, (tag, t))
        sim.run()
        return log, sim.events_processed, sim.now

    def _batched(self, times, event_specs):
        sim = Simulator()
        log = []
        for t, tag in event_specs["before"]:
            sim.schedule_at(t, log.append, (tag, t))
        stream = _stream(
            sim, times, lambda p: log.append(("pkt", sim.now, _index(p)))
        )
        sim.attach_stream(stream)
        for t, tag in event_specs["after"]:
            sim.schedule_at(t, log.append, (tag, t))
        sim.run()
        return log, sim.events_processed, sim.now

    def test_equal_timestamp_tie_break_matches_per_event(self):
        # Events at the arrivals' own timestamps, scheduled both before
        # the stream attaches (must win ties) and after (must lose them).
        times = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        specs = {
            "before": [(1.0, "pre"), (2.0, "pre"), (4.0, "pre")],
            "after": [(1.0, "post"), (3.0, "post")],
        }
        assert self._batched(times, specs) == self._reference(times, specs)

    def test_callback_scheduled_mid_batch_fires_after_batch(self, sim):
        # A dispatched packet schedules a zero-delay event; within the
        # same-timestamp batch the remaining arrivals still fire first
        # (their reserved seqs precede the new event's), exactly as in
        # the per-event loop.
        log = []
        scheduled = []

        def deliver(packet):
            log.append(("pkt", packet.dst & 0xFF))
            if not scheduled:
                scheduled.append(sim.call_now(lambda: log.append(("echo", sim.now))))

        stream = _stream(sim, [1.0, 1.0, 1.0], deliver)
        sim.attach_stream(stream)
        sim.run()
        assert log == [("pkt", 0), ("pkt", 1), ("pkt", 2), ("echo", 1.0)]

    def test_two_streams_interleave_in_time_order(self, sim):
        log = []
        _attach(sim, [1.0, 3.0, 5.0], log, tag="a")
        _attach(sim, [2.0, 4.0], log, tag="b")
        sim.run()
        assert [entry[0] for entry in log] == ["a", "b", "a", "b", "a"]
        assert [entry[1] for entry in log] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_two_streams_equal_times_fire_in_attach_order(self, sim):
        log = []
        _attach(sim, [1.0, 1.0], log, tag="first")
        _attach(sim, [1.0, 1.0], log, tag="second")
        sim.run()
        # The first stream reserved the lower seq block, so at equal
        # timestamps its items all precede the second stream's.
        assert [entry[0] for entry in log] == ["first", "first", "second", "second"]


class TestAccounting:
    def test_arrivals_count_as_processed_events(self, sim):
        log = []
        _attach(sim, [1.0, 1.0, 2.0], log)
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_clock_advances_to_last_arrival(self, sim):
        log = []
        _attach(sim, [1.0, 2.5], log)
        sim.run()
        assert sim.now == 2.5

    def test_until_stops_stream_and_advances_clock(self, sim):
        log = []
        stream = _attach(sim, [1.0, 2.0, 7.0], log)
        sim.run(until=5.0)
        assert len(log) == 2
        assert stream.remaining == 1
        assert sim.now == 5.0
        sim.run()
        assert len(log) == 3
        assert sim.now == 7.0

    def test_max_events_budget_splits_a_batch(self, sim):
        log = []
        stream = _attach(sim, [1.0] * 5, log)
        sim.run(max_events=3)
        assert len(log) == 3
        assert stream.remaining == 2
        assert sim.events_processed == 3
        sim.run()
        assert len(log) == 5

    def test_exhausted_stream_is_detached(self, sim):
        log = []
        _attach(sim, [1.0], log)
        sim.run()
        assert sim._streams == []

    def test_empty_stream_is_inert(self, sim):
        stream = _stream(sim, [], lambda p: None)
        sim.attach_stream(stream)
        assert stream.peek() is None
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0


class TestFlowExpiryBoundary:
    """Satellite: batched flow-table expiry keeps exact per-event
    boundary semantics.

    Expiry is strict (``now - last_seen > timeout``): a flow is still
    live at exactly ``last_seen + timeout`` and expired one ulp past it.
    A sweep event scheduled at the batch timestamp before the stream
    attached must run before any packet of that batch dispatches — its
    expirations land first, so batch packets open *fresh* flows.
    """

    TIMEOUT = 10.0

    def _run(self, batched: bool, sweep_at: float, arrivals_at: float):
        sim = Simulator()
        table = FlowTable(idle_timeout=self.TIMEOUT)
        log = []
        # One flow touched at t=0; its expiry deadline is t=TIMEOUT.
        seed = _packet(0)
        table.observe(seed, 0.0)

        def sweep():
            expired = table.expire_idle(sim.now)
            log.append(("sweep", sim.now, len(expired)))

        def deliver(packet):
            row, created = table.observe(packet, sim.now)
            log.append(("pkt", sim.now, created, table.record(row).first_seen))

        sim.schedule_at(sweep_at, sweep)  # scheduled before the arrivals
        times = [arrivals_at, arrivals_at]
        packets = [_packet(0), _packet(0)]  # same 5-tuple as the seed flow
        if batched:
            sim.attach_stream(_stream(sim, times, deliver, packets))
        else:
            for t, p in zip(times, packets):
                sim.schedule_at(t, deliver, p)
        sim.run()
        return log, table.expired_total, len(table)

    @pytest.mark.parametrize("batched", [False, True])
    def test_flow_live_at_exact_deadline(self, batched):
        # now - last_seen == timeout exactly: strict comparison keeps the
        # flow, the sweep expires nothing, and both packets join it.
        log, expired, live = self._run(
            batched, sweep_at=self.TIMEOUT, arrivals_at=self.TIMEOUT
        )
        assert log[0] == ("sweep", self.TIMEOUT, 0)
        assert [e[2] for e in log[1:]] == [False, False]  # joined, not created
        assert expired == 0 and live == 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_sweep_at_batch_timestamp_expires_before_dispatch(self, batched):
        # One ulp past the deadline: the sweep (same timestamp as the
        # batch, lower seq) must fire first and expire the flow, so the
        # batch's first packet opens a fresh flow at the batch time.
        t = self.TIMEOUT * (1 + 1e-9)
        log, expired, live = self._run(batched, sweep_at=t, arrivals_at=t)
        assert log[0] == ("sweep", t, 1)
        assert log[1] == ("pkt", t, True, t)  # fresh flow, first_seen == t
        assert log[2] == ("pkt", t, False, t)
        assert expired == 1 and live == 1

    def test_boundary_behaviour_identical_across_loops(self):
        for sweep_at, arrivals_at in [
            (self.TIMEOUT, self.TIMEOUT),
            (self.TIMEOUT * (1 + 1e-9),) * 2,
            (self.TIMEOUT / 2, self.TIMEOUT),
        ]:
            assert self._run(True, sweep_at, arrivals_at) == self._run(
                False, sweep_at, arrivals_at
            )
