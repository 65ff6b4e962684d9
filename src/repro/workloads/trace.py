"""Traces on disk and on the farm: JSONL persistence and replay.

A trace is the interchange format between workload generation, analysis,
and the farm: a time-ordered sequence of packet arrivals. In memory it is
always a columnar :class:`~repro.sim.batch.PacketColumns` whose keys
carry addresses as 32-bit values (generators build one,
:meth:`TraceReader.read_all` returns one, hand-built lists of
:class:`~repro.sim.batch.TraceRecord` rows become one through
``PacketColumns.from_records``); on disk it is JSONL, one row per line
with dotted-quad addresses, so an experiment's input is inspectable and
re-runnable bit-for-bit. :class:`TraceWriter` formats the values and
:class:`TraceReader` parses them back, each line inside its own error
report. :func:`replay_into_farm` puts a trace's packets onto a farm's
event clock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import dotted
from repro.sim.batch import ArrivalKey, PacketColumns, TraceRecord

__all__ = ["TraceRecord", "TraceWriter", "TraceReader", "replay_into_farm"]

# json.dumps builds an encoder per call when given separators.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_line(
    time: float, key: ArrivalKey, payload: str, size: int, tcp_flags: int
) -> str:
    """One row as its JSONL line: the fields of :class:`TraceRecord`, in
    declaration order."""
    src, src_port, dst, dst_port, protocol = key
    return _encode({
        "time": time, "src": dotted(src), "dst": dotted(dst),
        "protocol": protocol,
        "src_port": src_port, "dst_port": dst_port, "payload": payload,
        "size": size, "tcp_flags": tcp_flags,
    }) + "\n"


class TraceWriter:
    """Streams rows to a JSONL file (one per line)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self.records_written = 0

    def __enter__(self) -> "TraceWriter":
        self._fh = self.path.open("w")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write(self, record: TraceRecord) -> None:
        self.write_all((record,))

    def write_all(self, records: Iterable[TraceRecord]) -> int:
        """Append a trace (or any iterable of rows), column by column."""
        if self._fh is None:
            raise ValueError("TraceWriter must be used as a context manager")
        trace = PacketColumns.from_records(records)
        self._fh.writelines(map(
            _json_line, trace.times, trace.keys, trace.payloads, trace.sizes,
            trace.tcp_flags,
        ))
        self.records_written += len(trace)
        return self.records_written

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TraceReader:
    """Reads a JSONL trace file: iterate it for rows, or
    :meth:`read_all` for the trace."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[TraceRecord]:
        with self.path.open() as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = TraceRecord(**json.loads(line))
                    record.key  # parses (and keeps) the addresses
                except (ValueError, TypeError, AttributeError) as exc:
                    raise ValueError(
                        f"{self.path}:{line_no}: malformed trace record"
                    ) from exc
                yield record

    def read_all(self) -> PacketColumns:
        return PacketColumns.from_records(self)


def replay_into_farm(
    farm: Honeyfarm,
    records: Iterable[TraceRecord],
    batched: bool = False,
) -> int:
    """Feed every arrival of a trace (or of any iterable of rows) into
    the farm at its timestamp; returns the number of packets.

    ``batched=False`` schedules one injection event per row.
    ``batched=True`` attaches the trace's columns as a lazy arrival
    stream instead — bit-identical firing order and observable results
    (see ``docs/PERFORMANCE.md``) without one heap entry per packet, and
    without materializing a :class:`~repro.net.packet.Packet` for any
    arrival the gateway's span lane fully absorbs. Either way the trace
    itself is left untouched, so one trace can drive many farms.

    Arrivals must not be earlier than the farm's current simulated time.
    """
    trace = PacketColumns.from_records(records)
    if batched:
        farm.attach_arrival_columns(trace)
    else:
        for t, packet in zip(trace.times, trace.to_packets()):
            farm.sim.schedule_at(t, farm.inject, packet)
    return len(trace)
