"""Unit tests for the discrete-event engine."""

import gc

import pytest

from repro.core.intershard import run_lockstep
from repro.sim.engine import SimulationError, Simulator, batched_collection


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

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

    def test_max_events_bounds_execution(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

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

    def test_reset_clears_queue_and_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(5.0, lambda: None)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0
        assert sim.events_processed == 0


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
        for i in range(70):
            sim.schedule(1.0 + (i % 7) * 0.5, fired.append, i)
        expected_survivors = []
        events = list(sim._queue)
        for i, event in enumerate(events):
            if i % 2:
                event.cancel()
        for i, event in enumerate(events):
            if not i % 2:
                expected_survivors.append((event.time, event.seq, event.args[0]))
        expected_survivors.sort()
        sim.run()
        assert fired == [arg for _, _, arg in expected_survivors]


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

    def drain(self, until, limit_key, budget):
        self.sim.advance_for_stream(self.time)
        self.delivered = True
        self.seen.append(gc.get_threshold())
        return 1


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
