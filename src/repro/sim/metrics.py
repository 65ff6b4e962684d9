"""Measurement primitives used by every experiment.

Four metric kinds, all cheap enough to update on the per-packet fast path:

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge` — instantaneous level with time-weighted statistics
  (used for "concurrent live VMs", the paper's central scalability metric).
* :class:`Histogram` — value distribution with exact percentiles
  (clone latencies, private-page footprints).
* :class:`TimeSeries` — (time, value) samples for figure regeneration.

A :class:`MetricRegistry` namespaces metrics by dotted name and renders a
plain-text report, which the benchmark harness prints alongside the
pytest-benchmark wall-clock numbers.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries", "MetricRegistry"]


class Counter:
    """Monotonic event counter.

    Hot paths should resolve the counter once (see
    :meth:`MetricRegistry.handle`) and call :meth:`increment` on the held
    object — an increment is then one attribute store, with no dict lookup
    or string hashing per event.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A level that moves up and down, with time-weighted statistics.

    The gauge integrates ``level * dt`` between updates, so
    :meth:`time_average` is exact regardless of update spacing. The caller
    supplies timestamps (the simulated clock), keeping this module free of
    any dependency on the engine.
    """

    __slots__ = ("name", "value", "peak", "_last_time", "_weighted_sum", "_start_time")

    def __init__(self, name: str = "", time: float = 0.0) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0
        self._last_time = time
        self._weighted_sum = 0.0
        self._start_time = time

    def set(self, value: float, time: float) -> None:
        """Set the level at simulated ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"gauge time went backwards: {time} < {self._last_time}"
            )
        self._weighted_sum += self.value * (time - self._last_time)
        self._last_time = time
        self.value = value
        if value > self.peak:
            self.peak = value

    def adjust(self, delta: float, time: float) -> None:
        """Add ``delta`` to the level at simulated ``time``."""
        self.set(self.value + delta, time)

    def time_average(self, now: Optional[float] = None) -> float:
        """Time-weighted mean level from creation until ``now``
        (defaults to the last update time).

        ``now`` earlier than the last update is clamped to the last
        update time: :meth:`set` rejects time regressions outright, and
        without the clamp a stale ``now`` would silently integrate
        *negative* elapsed time into the average.
        """
        end = self._last_time if now is None or now < self._last_time else now
        elapsed = end - self._start_time
        if elapsed <= 0:
            return self.value
        total = self._weighted_sum + self.value * (end - self._last_time)
        return total / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, value={self.value}, peak={self.peak})"


class Histogram:
    """Exact-value histogram with percentiles.

    Stores every observation (sorted lazily); experiments record at most a
    few hundred thousand samples so exactness is affordable and removes a
    source of noise from paper-shape comparisons.

    The sum is maintained incrementally on :meth:`observe`, so
    ``total``/``mean`` are O(1): end-of-run report generation calls them
    across hundreds of histograms, and a per-call rescan of every stored
    sample made that quadratic in run length.
    """

    __slots__ = ("name", "_values", "_sorted", "_total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted = True
        self._total = 0.0

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self._total += value

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values.sort()
            self._sorted = True

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        self._ensure_sorted()
        return self._values[0] if self._values else 0.0

    @property
    def max(self) -> float:
        self._ensure_sorted()
        return self._values[-1] if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; ``p`` in [0, 100]."""
        if not self._values:
            return 0.0
        if not (0.0 <= p <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        self._ensure_sorted()
        if len(self._values) == 1:
            return self._values[0]
        rank = (p / 100.0) * (len(self._values) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return self._values[low]
        frac = rank - low
        interpolated = self._values[low] * (1 - frac) + self._values[high] * frac
        # Clamp: float interpolation error must not escape the bracket.
        return min(max(interpolated, self._values[low]), self._values[high])

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def summary(self) -> Dict[str, float]:
        """Dict of the headline statistics, suitable for report tables."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


class TimeSeries:
    """Append-only (time, value) samples for regenerating figures."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(f"time series went backwards: {time} < {self.times[-1]}")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def value_at(self, time: float) -> float:
        """Step-function lookup: the last recorded value at or before ``time``.

        Returns 0.0 before the first sample.
        """
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return 0.0
        return self.values[idx]

    def resample(self, interval: float) -> "TimeSeries":
        """Step-resample onto a uniform grid (for aligned figure series).

        Grid points are derived as ``start + i * interval`` rather than by
        accumulating ``t += interval``: repeated float addition drifts in
        the last ulp, so two series resampled onto the "same" grid would
        disagree on point timestamps (and any same-timestamp coalescing
        over them silently fragments).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        out = TimeSeries(self.name)
        if not self.times:
            return out
        stop = self.times[-1]
        start = self.times[0]
        i = 0
        t = start
        while t <= stop:
            out.record(t, self.value_at(t))
            i += 1
            t = start + i * interval
        return out

    def max_value(self) -> float:
        return max(self.values) if self.values else 0.0

    def to_csv(self, path, value_label: str = "value") -> int:
        """Write the series as a two-column CSV (plot-ready); returns the
        number of data rows written."""
        from pathlib import Path

        lines = [f"time_seconds,{value_label}"]
        lines.extend(f"{t!r},{v!r}" for t, v in zip(self.times, self.values))
        Path(path).write_text("\n".join(lines) + "\n")
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeSeries({self.name!r}, samples={len(self.times)})"


class MetricRegistry:
    """Namespace of metrics, keyed by dotted name.

    ``registry.counter("gateway.packets_in")`` creates on first use and
    returns the same object thereafter, so producer code never needs to
    thread metric objects through constructors.

    Re-registering a gauge with a ``time`` that disagrees with the
    original registration raises :class:`ValueError` — silently returning
    the first-registered object would hide the mismatch until the metric's
    numbers looked wrong.

    Per-packet code paths should not call :meth:`counter` per event (each
    call hashes the name and does a dict lookup); resolve a handle once via
    :meth:`handle` and keep it.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def handle(self, name: str) -> Counter:
        """Resolve a counter handle for a hot path.

        Semantically identical to :meth:`counter`; the distinct name marks
        call sites that resolve once (typically in ``__init__``) and then
        increment allocation-free, per the fast-path contract in
        ``docs/PERFORMANCE.md``.
        """
        return self.counter(name)

    def gauge(self, name: str, time: Optional[float] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, 0.0 if time is None else time)
        elif time is not None and time != gauge._start_time:
            raise ValueError(
                f"gauge {name!r} already registered with time={gauge._start_time!r};"
                f" got conflicting time={time!r}"
            )
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def series(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(name)
        return series

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters that have counted anything.

        Zero-valued counters are omitted: hot paths pre-register handles at
        construction time, and a handle that never fired carries the same
        information as a counter that was never created.
        """
        return {
            name: c.value for name, c in sorted(self._counters.items()) if c.value
        }

    def report(self) -> str:
        """Human-readable dump of every metric, for bench output."""
        lines: List[str] = []
        counters = self.counters()
        if counters:
            lines.append("counters:")
            for name, value in counters.items():
                lines.append(f"  {name:<44s} {value:>12d}")
        if self._gauges:
            lines.append("gauges (value / peak / time-avg):")
            for name, g in sorted(self._gauges.items()):
                lines.append(
                    f"  {name:<44s} {g.value:>10.2f} {g.peak:>10.2f}"
                    f" {g.time_average():>10.2f}"
                )
        histograms = {n: h for n, h in sorted(self._histograms.items()) if h.count}
        if histograms:
            lines.append("histograms (count / mean / p50 / p99 / max):")
            for name, h in histograms.items():
                s = h.summary()
                lines.append(
                    f"  {name:<44s} {int(s['count']):>8d} {s['mean']:>10.4g}"
                    f" {s['p50']:>10.4g} {s['p99']:>10.4g} {s['max']:>10.4g}"
                )
        series = {n: ts for n, ts in sorted(self._series.items()) if len(ts)}
        if series:
            lines.append("time series (samples / last / max):")
            for name, ts in series.items():
                lines.append(
                    f"  {name:<44s} {len(ts):>8d} {ts.values[-1]:>10.4g}"
                    f" {ts.max_value():>10.4g}"
                )
        return "\n".join(lines)
