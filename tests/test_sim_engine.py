"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intershard import run_lockstep
from repro.sim.engine import SimulationError, Simulator, batched_collection


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_timestamps_fire_in_insertion_order(self, sim):
        fired = []
        for name in "abcde":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.25]
        assert sim.now == 4.25

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_current_time_allowed(self, sim):
        fired = []
        sim.schedule(5.0, lambda: sim.schedule_at(5.0, fired.append, "x"))
        sim.run()
        assert fired == ["x"]

    def test_call_now_runs_after_current_event(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.call_now(order.append, "inner")
            order.append("outer-end")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "outer-end", "inner"]

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "nested"))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_event_does_not_advance_clock(self, sim):
        event = sim.schedule(10.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert sim.now == 1.0

    def test_cancel_during_run(self, sim):
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_a_cancelled_event_frees_its_callback_and_args(self, sim):
        # A cancelled event stays in the heap until it is popped or
        # compacted away; it must not keep its callback's owner or its
        # arguments alive meanwhile.
        class Owner:
            def step(self, arg):
                pass

        class Arg:
            pass

        owner, arg = Owner(), Arg()
        owner_ref, arg_ref = weakref.ref(owner), weakref.ref(arg)
        event = sim.schedule(5.0, owner.step, arg)
        del owner, arg
        event.cancel()
        assert sim.pending == 1  # still a tombstone in the heap
        assert owner_ref() is None and arg_ref() is None
        sim.run()
        assert sim.events_processed == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.pending == 1

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_resumes_after_until(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, fired.append, "y")
        assert sim.step() is True
        assert fired == ["x"]

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()


class TestDeterminism:
    def test_identical_runs_produce_identical_interleavings(self):
        def run_once():
            sim = Simulator()
            log = []
            for i in range(50):
                sim.schedule((i * 7) % 13 * 0.1, log.append, i)
            sim.run()
            return log

        assert run_once() == run_once()


class TestCompaction:
    """Lazy heap compaction: cancelled events may be dropped from the
    heap at any moment, and nothing observable may change when they are."""

    def _force_compaction(self, sim):
        """Push the dead fraction over one half on a big-enough heap."""
        victims = [sim.schedule(100.0 + i, lambda: None) for i in range(80)]
        before = sim.compactions
        for event in victims:
            event.cancel()
        assert sim.compactions > before
        return victims

    def test_cancel_then_reschedule_across_compaction_boundary(self, sim):
        # The idle-timer idiom: cancel the old deadline, schedule a new
        # one — with a compaction in between. Only the new event fires.
        fired = []
        old = sim.schedule(50.0, fired.append, "stale")
        old.cancel()
        victims = self._force_compaction(sim)
        replacement = sim.schedule(50.0, fired.append, "fresh")
        sim.run(until=60.0)
        assert fired == ["fresh"]
        assert not replacement.cancelled
        # The compacted-away tombstones are fully detached.
        assert all(v._sim is None for v in victims)

    def test_late_cancel_of_compacted_event_does_not_skew_accounting(self, sim):
        stale = sim.schedule(50.0, lambda: None)
        stale.cancel()
        self._force_compaction(sim)
        # The first compaction dropped and detached the stale tombstone.
        assert stale._sim is None
        # A second cancel of an event compaction already dropped must not
        # re-enter the dead-event accounting (it no longer occupies a slot).
        pending = sim.cancelled_pending
        stale.cancel()
        assert sim.cancelled_pending == pending

    def test_cancel_during_run_after_compaction_still_honoured(self, sim):
        fired = []
        doomed = sim.schedule(55.0, fired.append, "doomed")

        def cancel_doomed():
            self._force_compaction(sim)
            doomed.cancel()

        sim.schedule(10.0, cancel_doomed)
        sim.run(until=60.0)
        assert fired == []

    def test_compaction_preserves_firing_order(self, sim):
        fired = []
        events = [sim.schedule(1.0 + (i % 7) * 0.5, fired.append, i) for i in range(70)]
        expected_survivors = []
        for i, event in enumerate(events):
            if i % 2:
                event.cancel()
        for i, event in enumerate(events):
            if not i % 2:
                expected_survivors.append((event.time, event.seq, event.args[0]))
        expected_survivors.sort()
        sim.run()
        assert fired == [arg for _, _, arg in expected_survivors]


#: Few distinct times, so equal timestamps are the rule, not the exception.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
#: One initial event: its time, whether it is cancelled before the run,
#: and the delays of the children it schedules when it fires (0 is
#: ``call_now``).
_INITIAL = st.tuples(
    _TIMES,
    st.booleans(),
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=2),
)


class TestEventOrderContract:
    """Whatever the heap holds, events fire in the ``(time, seq)`` order
    of the live ones — checked against a plain sort."""

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(_INITIAL, min_size=Simulator.COMPACTION_MIN_QUEUE, max_size=100),
        stream_time=_TIMES,
        stream_at=st.integers(min_value=0, max_value=Simulator.COMPACTION_MIN_QUEUE - 1),
        extra_cancelled=st.integers(min_value=0, max_value=100),
    )
    def test_firing_order_is_the_sorted_live_keys(
        self, initial, stream_time, stream_at, extra_cancelled
    ):
        sim = Simulator()
        fired = []
        handles = []

        def fire(index, children):
            event = handles[index]
            fired.append((event.time, event.seq))
            assert sim.now == event.time
            for delay in children:
                child = len(handles)
                if delay == 0.0:
                    handles.append(sim.call_now(fire, child, ()))
                else:
                    handles.append(sim.schedule(delay, fire, child, ()))

        for index, (time, __, children) in enumerate(initial):
            if index == stream_at:
                stream = _OneArrival(sim, stream_time, [])
            handles.append(sim.schedule_at(time, fire, index, children))
        # More than half cancelled, so the heap compacts before the run;
        # the events drawn as cancelled go first.
        doomed = sorted(range(len(initial)), key=lambda i: not initial[i][1])
        for index in doomed[: len(initial) // 2 + 1 + extra_cancelled]:
            handles[index].cancel()
        assert sim.compactions >= 1

        original = stream.drain

        def drain(until, limit_key):
            fired.append((stream.time, stream.seq))
            original(until, limit_key)

        stream.drain = drain
        sim.run()
        live = [(e.time, e.seq) for e in handles if not e.cancelled]
        assert fired == sorted(live + [(stream.time, stream.seq)])


class _OneArrival:
    """The smallest arrival stream: one item that reports the collector
    thresholds in force while it is drained."""

    def __init__(self, sim, time, seen):
        self.sim, self.time, self.seen = sim, time, seen
        self.seq = sim.reserve_seqs(1)
        self.delivered = False
        sim.attach_stream(self)

    def peek(self):
        return None if self.delivered else (self.time, self.seq)

    def drain(self, until, limit_key):
        self.sim.advance_for_stream(self.time)
        self.delivered = True
        self.seen.append(gc.get_threshold())


class _Arrivals:
    """An arrival stream of several items: item ``i`` at ``times[i]``
    logs its ``(time, seq)`` key into ``fired`` when it is delivered."""

    def __init__(self, sim, times, fired):
        self.sim, self.times, self.fired = sim, list(times), fired
        self.base = sim.reserve_seqs(len(self.times))
        self.pos = 0

    def peek(self):
        if self.pos >= len(self.times):
            return None
        return (self.times[self.pos], self.base + self.pos)

    def drain(self, until, limit_key):
        while self.pos < len(self.times):
            key = self.peek()
            if until is not None and key[0] > until:
                break
            if limit_key is not None and limit_key < key:
                break
            queue = self.sim._queue
            if queue and queue[0] < key:
                break
            self.sim.advance_for_stream(key[0])
            self.pos += 1
            self.fired.append(key)


class TestStreamPick:
    """The run loop picks its stream once per drain; anything that can
    change the pick between drains must drop it."""

    def test_a_stream_attached_by_a_callback_interleaves_with_the_heap(self, sim):
        fired, heap, streams = [], [], []

        def heap_event(time, then=None):
            def fire():
                fired.append((event.time, event.seq))
                if then is not None:
                    then()

            event = sim.schedule_at(time, fire)
            heap.append(event)

        def attach():
            streams.append(_Arrivals(sim, [1.5, 2.0, 3.0, 3.5], fired))
            sim.attach_stream(streams[0])
            # Scheduled after the stream's block: at 2.0 it fires after
            # the stream's item there.
            heap_event(2.0)

        # The 0.5 event fills the pick, with no stream attached, before
        # the 1.0 event attaches one.
        heap_event(0.5)
        heap_event(1.0, then=attach)
        for time in (2.0, 3.0, 4.0):
            heap_event(time)
        sim.run()
        [stream] = streams
        expected = sorted(
            [(e.time, e.seq) for e in heap]
            + [(t, stream.base + i) for i, t in enumerate(stream.times)]
        )
        assert fired == expected
        assert sim.events_processed == len(expected)


class TestCollectorPolicy:
    """``batched_collection``: one collector policy per drive, however
    many simulators and slices the drive is made of."""

    @pytest.fixture(autouse=True)
    def _default_thresholds(self):
        saved, enabled = gc.get_threshold(), gc.isenabled()
        gc.enable()
        gc.set_threshold(700, 10, 10)
        yield
        gc.set_threshold(*saved)
        if not enabled:
            gc.disable()

    def test_a_draining_run_raises_the_threshold_and_restores_it(self, sim):
        seen = []
        _OneArrival(sim, 1.0, seen)
        sim.run()
        assert seen == [(50_000, 50, 50)]
        assert gc.get_threshold() == (700, 10, 10)

    def test_a_heap_only_run_keeps_the_defaults(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
        sim.run()
        assert seen == [(700, 10, 10)]

    def test_only_the_outermost_holder_restores(self, sim):
        seen = []
        _OneArrival(sim, 1.0, seen)
        _OneArrival(sim, 3.0, seen)
        with batched_collection():
            sim.run(until=2.0)
            seen.append(gc.get_threshold())  # between slices: still raised
            sim.run(until=4.0)
            with batched_collection():
                pass
            seen.append(gc.get_threshold())
        assert seen == [(50_000, 50, 50)] * 4
        assert gc.get_threshold() == (700, 10, 10)

    def test_restored_when_the_block_raises(self, sim):
        def boom():
            raise RuntimeError("callback failed")

        _OneArrival(sim, 2.0, [])
        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.get_threshold() == (700, 10, 10)
        with pytest.raises(RuntimeError):
            with batched_collection():
                raise RuntimeError("driver failed")
        assert gc.get_threshold() == (700, 10, 10)

    def test_skipped_while_the_collector_is_disabled(self, sim):
        gc.disable()
        seen = []
        _OneArrival(sim, 1.0, seen)
        sim.run()
        assert seen == [(700, 10, 10)] and not gc.isenabled()

    def test_a_lockstep_drive_holds_one_policy_across_its_slices(self):
        # What a slice-driver pays otherwise: the allocations run up under
        # the raised threshold are over the restored one, so every slice
        # boundary buys a collection.
        seen = []

        class Group:
            def epoch(self, end, inbound):
                Simulator().run(until=end)
                seen.append(gc.get_threshold())

            def deposit(self, inbound):
                seen.append(gc.get_threshold())

            def collect(self):
                return ()

        assert run_lockstep([Group()], lambda message: 0, 0.0, 1.0, 0.25) == 4
        assert seen == [(50_000, 50, 50)] * 5
        assert gc.get_threshold() == (700, 10, 10)
