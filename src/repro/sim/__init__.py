"""Discrete-event simulation substrate for the Potemkin reproduction.

Everything in the reproduction that has a notion of time — packet arrivals,
clone latencies, idle timeouts, worm epidemics — runs on top of this small,
deterministic discrete-event kernel:

* :class:`~repro.sim.engine.Simulator` — the event loop and simulated clock.
* :class:`~repro.sim.rand.RandomStream` / :class:`~repro.sim.rand.SeedSequence`
  — named, reproducible random streams.
* :mod:`repro.sim.metrics` — counters, gauges, histograms, and time series
  used by every experiment to record results.

Sequential behaviour (a guest's scan loop, an outbreak's ticks) is a
callback that does one step and schedules the next with
:meth:`Simulator.schedule`, keeping the returned :class:`Event` when
something may need to cancel the pending step.

The kernel is deliberately minimal: events are ``(time, seq, callback)``
triples ordered by time then insertion sequence, so a given seed always
produces a bit-identical run.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    TimeSeries,
)
from repro.sim.rand import RandomStream, SeedSequence

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "RandomStream",
    "SeedSequence",
    "Simulator",
    "SimulationError",
    "TimeSeries",
]
