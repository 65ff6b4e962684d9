"""The idle-timeout ↔ concurrent-VM trade-off (experiment F-CONC).

The paper's central scalability analysis: given the arrival process at
the telescope, how many VMs must be simultaneously live as a function of
the reclamation idle timeout? A VM for address ``a`` is live from the
first packet to ``a`` until ``timeout`` seconds after the last packet in
a busy period, so the concurrency curve can be computed *exactly* from a
trace with a sweep — no farm simulation required — which is how the paper
itself evaluates timeouts far beyond what a testbed run covers.

The sweep is O(E log E) in trace events using an expiry min-heap, and
:func:`sweep_timeouts` shares one parsed trace across the whole timeout
grid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.batch import PacketColumns, TraceRecord
from repro.sim.metrics import TimeSeries

__all__ = ["ConcurrencyResult", "concurrency_for_timeout", "sweep_timeouts"]


@dataclass(frozen=True)
class ConcurrencyResult:
    """Concurrency statistics for one idle timeout."""

    timeout: float
    peak_vms: int
    mean_vms: float
    vm_instantiations: int
    series: TimeSeries


def concurrency_for_timeout(
    records: Iterable[TraceRecord],
    timeout: float,
    sample_interval: float = 1.0,
) -> ConcurrencyResult:
    """Exact concurrent-VM count over time for one idle timeout.

    ``records`` (a trace, or rows to make one of) must be time-sorted —
    generators and readers produce sorted traces; only the time and key
    columns are read. The returned series samples the concurrency level
    at ``sample_interval`` spacing, plus every peak-changing instant is
    reflected in ``peak_vms``/``mean_vms`` exactly.
    """
    if timeout <= 0:
        raise ValueError(f"timeout must be positive: {timeout!r}")
    trace = PacketColumns.from_records(records)
    series = TimeSeries(f"concurrency[t={timeout:g}s]")
    expiry_heap: List[Tuple[float, str]] = []  # (expiry_time, address)
    expires_at: Dict[str, float] = {}
    live = 0
    instantiations = 0
    peak = 0
    weighted_sum = 0.0
    last_time = 0.0
    next_sample = 0.0

    def advance_to(t: float) -> None:
        nonlocal live, weighted_sum, last_time, next_sample
        # Pop every address whose busy period ends before t.
        while expiry_heap and expiry_heap[0][0] <= t:
            exp_time, addr = heapq.heappop(expiry_heap)
            if expires_at.get(addr) != exp_time:
                continue  # stale entry; address was touched again
            weighted_sum += live * (exp_time - last_time)
            last_time = exp_time
            del expires_at[addr]
            live -= 1
        weighted_sum += live * (t - last_time)
        last_time = t

    for t, key in zip(trace.times, trace.keys):
        advance_to(t)
        addr = key[2]  # the destination
        if addr not in expires_at:
            live += 1
            instantiations += 1
            if live > peak:
                peak = live
        expires_at[addr] = t + timeout
        heapq.heappush(expiry_heap, (t + timeout, addr))
        while next_sample <= t:
            series.record(next_sample, live)
            next_sample += sample_interval

    # Drain the tail so every VM's full lifetime is accounted.
    if expiry_heap:
        end = max(exp for exp, __ in expiry_heap)
        advance_to(end)
    mean = weighted_sum / last_time if last_time > 0 else 0.0
    return ConcurrencyResult(
        timeout=timeout,
        peak_vms=peak,
        mean_vms=mean,
        vm_instantiations=instantiations,
        series=series,
    )


# Per-worker state for the multiprocessing sweep: the trace is shipped
# once per worker (via the pool initializer), not once per timeout.
_worker_records: Iterable[TraceRecord] = ()
_worker_sample_interval: float = 1.0


def _init_sweep_worker(
    records: PacketColumns, sample_interval: float
) -> None:
    global _worker_records, _worker_sample_interval
    _worker_records = records
    _worker_sample_interval = sample_interval


def _sweep_one(timeout: float) -> ConcurrencyResult:
    return concurrency_for_timeout(
        _worker_records, timeout, _worker_sample_interval
    )


def sweep_timeouts(
    records: Iterable[TraceRecord],
    timeouts: Sequence[float],
    sample_interval: float = 1.0,
    workers: Optional[int] = None,
) -> List[ConcurrencyResult]:
    """Concurrency results across a timeout grid (the F-CONC figure).

    ``workers`` > 1 fans the (independent, read-only) timeout points out
    over a process pool. Each point is a pure function of the trace, so
    the output is identical to the sequential sweep — results come back
    in ``timeouts`` order regardless of which worker finishes first.
    """
    trace = PacketColumns.from_records(records)
    if workers is not None and workers > 1 and len(timeouts) > 1:
        import multiprocessing

        with multiprocessing.Pool(
            processes=min(workers, len(timeouts)),
            initializer=_init_sweep_worker,
            initargs=(trace, sample_interval),
        ) as pool:
            return pool.map(_sweep_one, timeouts, chunksize=1)
    return [
        concurrency_for_timeout(trace, timeout, sample_interval)
        for timeout in timeouts
    ]
