"""The flight recorder: a bounded, structured event trace of one run.

The paper's claims are measurements, so the reproduction needs a way to
see *inside* a run — which subsystem burned the time, what the gateway
decided packet by packet, when clones started and finished — without
print-debugging or re-running under a profiler. The
:class:`FlightRecorder` collects:

* **events** — small structured records (dispatch verdicts, clone
  lifecycle, reclamation sweeps, fault injections, containment
  decisions) appended to a bounded ring buffer; when the buffer is
  full the oldest events are evicted, never the newest;
* **metric snapshots** — periodic serializations of every counter,
  gauge, and histogram in a :class:`~repro.sim.metrics.MetricRegistry`,
  taken every N *simulated* seconds while a run executes;
* **per-subsystem wall-clock timing** — the simulator's event loop
  attributes each callback's real elapsed time to the subsystem that
  owns it (derived from the callback's module), accumulated here.

Determinism contract
--------------------
The JSONL event stream carries **sim-clock timestamps only** plus a
monotone sequence number, so two runs of the same seed produce
byte-identical traces. Wall-clock timing is deliberately kept *out* of
the event stream (it varies run to run) and lives in
:attr:`FlightRecorder.timing`, reported separately.

Zero overhead when disabled
---------------------------
Instrumented code guards every emit with a single module-level check::

    from repro.obs import recorder as _obs
    ...
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.emit(self.sim.now, "gateway", "dispatch", verdict="delivered")

``ACTIVE`` is ``None`` unless a recorder has been installed, so the
disabled cost is one global load and an identity test — verified against
the hot-path row of ``benchmarks/bench_gateway_throughput.py`` (T-GATEWAY;
see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ACTIVE",
    "FlightRecorder",
    "install",
    "uninstall",
    "active",
    "recording",
]

#: The module-level switch every instrumented hot path checks. ``None``
#: means tracing is off and emit sites fall through at the cost of one
#: global load; otherwise it is the installed :class:`FlightRecorder`.
ACTIVE: Optional["FlightRecorder"] = None


class FlightRecorder:
    """Bounded structured event trace plus timing and snapshot state.

    Parameters
    ----------
    capacity:
        Ring-buffer size in events. The recorder never grows past this;
        :attr:`evicted` counts how many old events were pushed out.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity!r}")
        self.capacity = capacity
        self.events: "deque[Tuple[float, int, str, str, Dict[str, Any]]]" = deque(
            maxlen=capacity
        )
        self.emitted = 0
        self._seq = 0
        # subsystem -> [callback invocations, wall-clock seconds]
        self.timing: Dict[str, List[float]] = {}
        self._snapshot_timer: Optional[Any] = None
        self.snapshots_taken = 0

    # ------------------------------------------------------------------ #
    # Event stream
    # ------------------------------------------------------------------ #

    def emit(self, t: float, subsystem: str, event: str, **fields: Any) -> None:
        """Record one event at simulated time ``t``.

        ``fields`` must be JSON-serializable and deterministic for a
        given seed (no wall-clock values, no object ids).
        """
        self._seq += 1
        self.emitted += 1
        self.events.append((t, self._seq, subsystem, event, fields))

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.emitted - len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------ #
    # Wall-clock timing (kept out of the event stream: nondeterministic)
    # ------------------------------------------------------------------ #

    def record_timing(self, subsystem: str, wall_seconds: float) -> None:
        """Attribute ``wall_seconds`` of real time to ``subsystem``."""
        cell = self.timing.get(subsystem)
        if cell is None:
            cell = self.timing[subsystem] = [0, 0.0]
        cell[0] += 1
        cell[1] += wall_seconds

    def timing_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-subsystem ``{calls, wall_seconds, mean_us}`` breakdown."""
        out: Dict[str, Dict[str, float]] = {}
        for subsystem, (calls, wall) in sorted(self.timing.items()):
            out[subsystem] = {
                "calls": int(calls),
                "wall_seconds": wall,
                "mean_us": (wall / calls * 1e6) if calls else 0.0,
            }
        return out

    # ------------------------------------------------------------------ #
    # Metric snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self, now: float, metrics: Any) -> None:
        """Serialize every metric in ``metrics`` as one snapshot event."""
        gauges = {
            name: {
                "value": g.value,
                "peak": g.peak,
                "time_avg": g.time_average(now=now),
            }
            for name, g in sorted(metrics._gauges.items())
        }
        histograms = {
            name: h.summary()
            for name, h in sorted(metrics._histograms.items())
            if h.count
        }
        self.snapshots_taken += 1
        self.emit(
            now,
            "metrics",
            "snapshot",
            counters=metrics.counters(),
            gauges=gauges,
            histograms=histograms,
        )

    def start_snapshots(self, sim: Any, metrics: Any, interval: float) -> None:
        """Schedule periodic snapshots every ``interval`` sim-seconds.

        The chain keeps rescheduling until :meth:`stop_snapshots` (or the
        run simply ends); it only exists while tracing is explicitly
        started, so an untraced run never carries the extra events.
        """
        if interval <= 0:
            raise ValueError(f"snapshot interval must be positive: {interval!r}")
        if self._snapshot_timer is not None:
            raise ValueError("snapshots already started")
        self._snapshot_timer = sim.schedule(
            interval, self._snapshot_tick, sim, metrics, interval
        )

    def _snapshot_tick(self, sim: Any, metrics: Any, interval: float) -> None:
        self.snapshot(sim.now, metrics)
        self._snapshot_timer = sim.schedule(
            interval, self._snapshot_tick, sim, metrics, interval
        )

    def stop_snapshots(self) -> None:
        if self._snapshot_timer is not None:
            self._snapshot_timer.cancel()
            self._snapshot_timer = None

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def iter_jsonl(self) -> Iterator[str]:
        """Yield one compact, key-sorted JSON line per event (stable
        rendering: same events, same bytes)."""
        for t, seq, subsystem, event, fields in self.events:
            record = {"t": t, "seq": seq, "sub": subsystem, "ev": event}
            record.update(fields)
            yield json.dumps(record, sort_keys=True, separators=(",", ":"))

    def to_jsonl(self) -> str:
        lines = list(self.iter_jsonl())
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, path: Any) -> int:
        """Write the trace as JSONL; returns the number of events written."""
        from pathlib import Path

        Path(path).write_text(self.to_jsonl())
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FlightRecorder events={len(self.events)}/{self.capacity}"
            f" emitted={self.emitted} snapshots={self.snapshots_taken}>"
        )


# ---------------------------------------------------------------------- #
# Module-level installation
# ---------------------------------------------------------------------- #

def install(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-wide active recorder."""
    global ACTIVE
    ACTIVE = recorder
    return recorder


def uninstall() -> Optional[FlightRecorder]:
    """Disable tracing; returns the recorder that was active, if any."""
    global ACTIVE
    recorder, ACTIVE = ACTIVE, None
    if recorder is not None:
        recorder.stop_snapshots()
    return recorder


def active() -> Optional[FlightRecorder]:
    return ACTIVE


@contextmanager
def recording(capacity: int = 100_000) -> Iterator[FlightRecorder]:
    """Context manager: install a fresh recorder, uninstall on exit.

    Always uninstalls (even on exception), so a traced test can never
    leak tracing into the rest of the process.
    """
    recorder = install(FlightRecorder(capacity=capacity))
    try:
        yield recorder
    finally:
        if ACTIVE is recorder:
            uninstall()
        else:  # someone swapped recorders mid-flight; still stop timers
            recorder.stop_snapshots()
