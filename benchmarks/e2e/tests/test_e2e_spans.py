"""Span recorder arithmetic and monkeypatch hygiene."""

import pytest

from layers import parallel_metrics
from spans import Patcher, SpanRecorder, counted, timed


class FakeClock:
    """Each reading advances by the next scripted step."""

    def __init__(self, *steps):
        self.now = 0.0
        self.steps = list(steps)

    def __call__(self):
        self.now += self.steps.pop(0) if self.steps else 1.0
        return self.now


def test_nested_and_sibling_self_times_sum_to_root():
    rec = SpanRecorder(clock=FakeClock())  # every clock reading is +1 s
    with rec.span("root") as root:            # starts at 1
        with rec.span("a"):                   # 2 .. 7
            with rec.span("b"):               # 3 .. 4
                pass
            with rec.span("b"):               # 5 .. 6
                pass
        with rec.span("c"):                   # 8 .. 9
            pass
    totals = rec.totals(root)                 # root ends at 10
    assert totals["root"] == (1, 9.0, 3.0)
    assert totals["a"] == (1, 5.0, 3.0)
    assert totals["b"] == (2, 2.0, 2.0)
    assert totals["c"] == (1, 1.0, 1.0)
    assert sum(own for __, __, own in totals.values()) == rec.duration(root)


def test_reentrant_span_is_not_double_counted():
    rec = SpanRecorder(clock=FakeClock())
    calls = []

    def inbound(depth):
        calls.append(depth)
        if depth:
            inbound_traced(depth - 1)

    inbound_traced = timed(rec, "gateway.inbound", inbound)
    with rec.span("root") as root:
        inbound_traced(2)
    totals = rec.totals(root)
    # Three nested calls: durations 5, 3, 1; self times 2, 2, 1.
    assert calls == [2, 1, 0]
    assert totals["gateway.inbound"] == (3, 9.0, 5.0)
    assert totals["root"][2] + totals["gateway.inbound"][2] == rec.duration(root)


def test_totals_ignore_spans_outside_the_root():
    rec = SpanRecorder(clock=FakeClock())
    with rec.span("setup"):
        pass
    with rec.span("root") as root:
        with rec.span("work"):
            pass
    with rec.span("teardown"):
        pass
    assert set(rec.totals(root)) == {"root", "work"}


def test_timed_passes_results_exceptions_and_tally_through():
    rec = SpanRecorder(clock=FakeClock())
    double = timed(rec, "double", lambda x, scale=2: x * scale,
                   tally=lambda args, result: result)
    assert double(3) == 6
    assert double(1, scale=5) == 5
    assert rec.counts["double:tally"] == 11

    def boom():
        raise KeyError("inside")

    with rec.span("root") as root:
        with pytest.raises(KeyError):
            timed(rec, "boom", boom)()
    # The failed call still closed its span and unwound the stack.
    assert rec.stack == [-1]
    assert rec.totals(root)["boom"][0] == 1


def test_counted_counts_without_spans():
    rec = SpanRecorder()
    bump = counted(rec, "bump", lambda x: x + 1)
    assert [bump(i) for i in range(4)] == [1, 2, 3, 4]
    assert rec.counts["bump"] == 4
    assert len(rec) == 0


class Target:
    def method(self):
        return "original"

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def helper():
        return "static"


class Child(Target):
    pass


def test_patcher_restores_after_an_exception():
    original = vars(Target)["method"]
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            patcher.patch(Target, "method", lambda f: lambda self: "wrapped")
            patcher.patch(Target, "make", lambda f: lambda cls: "made")
            patcher.patch(Target, "helper", lambda f: lambda: "patched")
            patcher.patch(Child, "method", lambda f: lambda self: "shadow")
            assert Target().method() == "wrapped"
            assert Target.make() == "made"
            assert Target.helper() == "patched"
            assert Child().method() == "shadow"
            raise RuntimeError("measured code failed")
    assert vars(Target)["method"] is original
    assert Target().method() == "original"
    assert isinstance(Target.make(), Target)
    assert Target.helper() == "static"
    assert "method" not in vars(Child)
    assert Child().method() == "original"


def test_layer_wrappers_leave_the_program_as_found():
    import layers
    from repro.core.gateway import Gateway
    from repro.core.intershard import ShardMessage
    from repro.sim.engine import Simulator
    from repro.workloads import trace

    before = (
        vars(Gateway)["process_inbound"], vars(Simulator)["schedule_at"],
        vars(ShardMessage)["decode"], trace.replay_into_farm,
    )
    rec = SpanRecorder()
    with Patcher() as patcher:
        layers.install_layers(rec, patcher)
        layers.install_parallel(rec, patcher)
        assert vars(Gateway)["process_inbound"] is not before[0]
    after = (
        vars(Gateway)["process_inbound"], vars(Simulator)["schedule_at"],
        vars(ShardMessage)["decode"], trace.replay_into_farm,
    )
    assert all(a is b for a, b in zip(before, after))


def test_straggler_wait_is_the_later_recvs_of_each_epoch():
    rec = SpanRecorder(clock=FakeClock(
        1,          # run starts
        1, 1, 1, 1,  # epoch 1: two sends, 1 s each
        1, 4,       # first recv waits 4 s
        1, 2,       # second recv waits 2 s more: the straggler's excess
        1, 1, 1, 1,  # epoch 2: two sends
        1, 3,       # first recv 3 s
        1, 0.5,     # second recv 0.5 s
        1,          # run ends
    ))
    with rec.span("core.parallel.run") as root:
        for __ in range(2):
            for __ in range(2):
                with rec.span("core.parallel.send"):
                    pass
            for __ in range(2):
                with rec.span("core.parallel.recv"):
                    pass
    rec.add("core.parallel.recv:tally", 600)
    metrics = parallel_metrics(rec, root, epochs=2, messages=6)
    assert metrics["core.parallel.coord_send_s"] == pytest.approx(4.0)
    assert metrics["core.parallel.coord_recv_wait_s"] == pytest.approx(9.5)
    assert metrics["core.parallel.straggler_wait_s"] == pytest.approx(2.5)
    assert metrics["core.parallel.epochs"] == 2
    assert metrics["core.intershard.wire_bytes_per_msg"] == 100.0
