"""Telescope traffic characterisation (experiment F-TRAFFIC).

Telescope papers — and the paper's own evaluation setup — lead with a
characterisation of what the dark space actually receives: how fast new
sources appear, which services they probe, and how heavy-tailed the
per-source activity is. These statistics are also exactly the knobs the
synthetic generator exposes, so this module doubles as the *validation*
that generated traces exhibit the published structure they were
calibrated to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.analysis.report import format_table
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, TcpFlags
from repro.sim.batch import PacketColumns, TraceRecord
from repro.sim.metrics import Histogram, TimeSeries

__all__ = ["TrafficProfile", "characterize_trace"]

_PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


@dataclass
class TrafficProfile:
    """Everything the characterisation computes for one trace."""

    duration: float
    total_packets: int
    unique_sources: int
    unique_destinations: int
    source_arrival_series: TimeSeries       # cumulative distinct sources
    top_ports: List[Tuple[str, int]]        # ("tcp/445", count), descending
    session_sizes: Histogram                # packets per source
    exploit_packets: int
    backscatter_packets: int                # TCP with SYN/ACK or RST flags

    @property
    def packets_per_second(self) -> float:
        return self.total_packets / self.duration if self.duration else 0.0

    @property
    def mean_session_packets(self) -> float:
        return self.session_sizes.mean

    def hot_port_concentration(self, top_n: int = 10) -> float:
        """Fraction of packets on the ``top_n`` busiest ports."""
        if not self.total_packets:
            return 0.0
        return sum(count for __, count in self.top_ports[:top_n]) / self.total_packets

    def render(self) -> str:
        overview = format_table(["metric", "value"], [
            ["duration (s)", f"{self.duration:.0f}"],
            ["packets", self.total_packets],
            ["packets/s", f"{self.packets_per_second:.1f}"],
            ["unique sources", self.unique_sources],
            ["unique destinations", self.unique_destinations],
            ["mean packets/source", f"{self.mean_session_packets:.1f}"],
            ["p99 packets/source", f"{self.session_sizes.percentile(99):.0f}"],
            ["max packets/source", f"{self.session_sizes.max:.0f}"],
            ["exploit packets", self.exploit_packets],
            ["backscatter packets", self.backscatter_packets],
            ["top-10 port share", f"{self.hot_port_concentration() * 100:.0f}%"],
        ], title="Telescope traffic characterisation")
        ports = format_table(
            ["service", "packets"],
            [[name, count] for name, count in self.top_ports[:10]],
            title="Busiest target services",
        )
        return overview + "\n\n" + ports


def characterize_trace(records: Iterable[TraceRecord], duration: float) -> TrafficProfile:
    """Compute the full profile of a (time-sorted) trace, or of rows to
    make one of."""
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration!r}")
    trace = PacketColumns.from_records(records)
    sources_seen: Dict[int, int] = {}
    destinations = set()
    port_counts: Dict[str, int] = {}
    arrival = TimeSeries("unique sources (cumulative)")
    exploit = 0
    backscatter = 0

    for t, (src, __, dst, dst_port, protocol), payload, tcp_flags in zip(
        trace.times, trace.keys, trace.payloads, trace.tcp_flags
    ):
        count = sources_seen.get(src)
        if count is None:
            sources_seen[src] = 1
            arrival.record(t, len(sources_seen))
        else:
            sources_seen[src] = count + 1
        destinations.add(dst)
        proto = _PROTO_NAMES.get(protocol, str(protocol))
        key = f"{proto}/{dst_port}"
        port_counts[key] = port_counts.get(key, 0) + 1
        if payload.startswith("exploit:"):
            exploit += 1
        if protocol == PROTO_TCP and tcp_flags:
            flags = TcpFlags(tcp_flags)
            if flags.is_synack or flags & TcpFlags.RST:
                backscatter += 1

    sessions = Histogram("packets per source")
    for count in sources_seen.values():
        sessions.observe(float(count))
    top_ports = sorted(port_counts.items(), key=lambda kv: -kv[1])
    return TrafficProfile(
        duration=duration,
        total_packets=len(trace),
        unique_sources=len(sources_seen),
        unique_destinations=len(destinations),
        source_arrival_series=arrival,
        top_ports=top_ports,
        session_sizes=sessions,
        exploit_packets=exploit,
        backscatter_packets=backscatter,
    )
