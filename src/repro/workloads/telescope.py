"""Synthetic Internet background radiation for a network telescope.

The paper drives its scalability analysis with traffic observed at a
large dark-address telescope. This generator reproduces the *statistical
structure* of that traffic — the properties the farm's VM-demand and
concurrency results actually depend on:

* **Source arrivals** are Poisson (new scanners appear at a steady rate).
* **Per-source sessions are heavy-tailed**: most sources send a handful
  of probes, a few send thousands (bounded-Pareto session sizes) — which
  is what makes per-source VM state hard and per-*address* recycling easy.
* **Destinations** are either uniform over the dark space or sequential
  sweeps (both scanner populations exist in telescope data).
* **Each touched destination receives a small burst**, not one packet:
  TCP scanners retransmit their SYN (dark space never answers, so the
  scanner's stack retries on its ~3 s timer), and exploit-carrying
  sources follow the connection with the payload. Telescope analyses see
  this as the per-address packet multiplicity that makes the VM-demand
  rate several times lower than the packet rate.
* **Ports are Zipf-hot**: a few services (445, 135, 1434, 80, ...)
  attract most probes.
* A configurable fraction of sources carry a **real exploit** for their
  target port, so some probes actually compromise honeypots.
* A configurable fraction of sources are **backscatter** — victims of
  spoofed-source DDoS answering SYN/ACKs and RSTs toward addresses that
  never contacted them. Telescope studies attribute a large share of
  dark-space traffic to backscatter; for the farm it is pure overhead
  (VMs get cloned, then silently drop the unsolicited segments), which
  is exactly why it must be modelled in VM-demand numbers.

Calibration: defaults produce roughly 40–50 packets/second and ~8 new
sources/second per /16 of dark space — inside the tens-to-hundreds pps
range published for mid-2000s /16-scale telescopes. The population
shape is :class:`TelescopeConfig`; the per-source timing the traces were
calibrated at is the module constants beside the port mix.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from math import log
from random import Random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.addr import AddressSpaceInventory, Prefix
from repro.net.packet import PROTO_TCP, PROTO_UDP, TcpFlags
from repro.sim.batch import PacketColumns
from repro.sim.rand import SeedSequence, randbelow

__all__ = [
    "PartitionedTelescope",
    "TelescopeConfig",
    "TelescopeWorkload",
]

#: (protocol, port, weight, exploit_tag or None) — the hot-port mix.
DEFAULT_PORT_MIX: Tuple[Tuple[int, int, float, Optional[str]], ...] = (
    (PROTO_TCP, 445, 0.24, "exploit:sasser"),
    (PROTO_TCP, 135, 0.18, "exploit:blaster"),
    (PROTO_TCP, 139, 0.09, None),
    (PROTO_TCP, 80, 0.08, "exploit:codered"),
    (PROTO_UDP, 1434, 0.06, "exploit:slammer"),
    (PROTO_TCP, 22, 0.04, None),
    (PROTO_TCP, 3389, 0.04, None),
    (PROTO_TCP, 1025, 0.03, None),
    (PROTO_TCP, 4899, 0.02, None),
    (PROTO_UDP, 137, 0.02, None),
)
_OTHER_PORT_WEIGHT = 0.20  # random unpopular ports
#: The mix's running weight sums, in mix order: a roll picks the first
#: entry whose bound is above it, or the unpopular tail past the last.
_PORT_MIX_BOUNDS = tuple(accumulate(weight for __, __, weight, __ in DEFAULT_PORT_MIX))

PROBE_RATE_PER_SOURCE = 12.0  # probes/second while a session lasts
TCP_SYN_RETRIES = 3           # total SYNs sent per unanswered TCP dst
RETRY_INTERVAL = 3.0          # TCP retransmission timer
EXPLOIT_PAYLOAD_DELAY = 0.4   # connect -> payload gap

_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)
_RST_ACK = int(TcpFlags.RST | TcpFlags.ACK)
_VICTIM_PORTS = (80, 443, 53, 6667, 25)  # a backscatter victim's service
#: An exploit-less TCP scanner's burst per destination: (offset, payload,
#: size) of the SYN and its retransmissions.
_RETRY_BURST = tuple((retry * RETRY_INTERVAL, "", 40) for retry in range(TCP_SYN_RETRIES))
#: A source (scanner) or destination (backscatter) port is 1024 plus a
#: draw below this, of 16 bits.
_PORT_SPAN = 60001


def random_external_address(rng: Random, covered: Callable[[int], bool]) -> int:
    """A plausible external address, 1.0.0.0 to 223.255.255.255 (as
    ``randint(0x01000000, 0xDFFFFFFF)`` draws it), redrawn while
    ``covered``."""
    while True:
        value = 0x01000000 + randbelow(rng, 0xDF000000)
        if not covered(value):
            return value


@dataclass(frozen=True)
class TelescopeConfig:
    """The background-radiation population: how many sources, how long
    their sessions, what they are.

    ``sources_per_second`` scales with telescope size: the default is per
    /16 and :class:`TelescopeWorkload` multiplies by the number of /16
    equivalents it is pointed at.
    """

    sources_per_second_per_slash16: float = 8.0
    probes_min: int = 1
    probes_max: int = 4000
    probes_pareto_shape: float = 1.15
    sequential_sweep_fraction: float = 0.3
    exploit_source_fraction: float = 0.35
    backscatter_fraction: float = 0.15
    seed: int = 77

    def __post_init__(self) -> None:
        if self.sources_per_second_per_slash16 <= 0:
            raise ValueError("sources_per_second_per_slash16 must be positive")
        if not (0 < self.probes_min < self.probes_max):
            raise ValueError("need 0 < probes_min < probes_max")
        if not (0.0 <= self.sequential_sweep_fraction <= 1.0):
            raise ValueError("sequential_sweep_fraction must be in [0, 1]")
        if not (0.0 <= self.exploit_source_fraction <= 1.0):
            raise ValueError("exploit_source_fraction must be in [0, 1]")
        if not (0.0 <= self.backscatter_fraction <= 1.0):
            raise ValueError("backscatter_fraction must be in [0, 1]")


class TelescopeWorkload:
    """Generates background-radiation traces over the given dark space."""

    def __init__(
        self,
        prefixes: Sequence[Prefix],
        config: Optional[TelescopeConfig] = None,
    ) -> None:
        if not prefixes:
            raise ValueError("telescope needs at least one dark prefix")
        self.inventory = AddressSpaceInventory(prefixes)
        self.config = config or TelescopeConfig()
        self._seeds = SeedSequence(self.config.seed)
        # What every session reads: the address count, its bit length and
        # the flat layout; the bounded-Pareto session-size constants.
        total = self.inventory.total_addresses
        self._flat = (total, total.bit_length(), *self.inventory.flat_layout)
        shape = self.config.probes_pareto_shape
        high = float(self.config.probes_max) ** -shape
        self._pareto = (high, float(self.config.probes_min) ** -shape - high, -1.0 / shape)

    # ------------------------------------------------------------------ #
    # Rates
    # ------------------------------------------------------------------ #

    @property
    def slash16_equivalents(self) -> float:
        return self.inventory.total_addresses / 65536.0

    @property
    def source_rate(self) -> float:
        """New sources/second over the whole telescope."""
        return self.config.sources_per_second_per_slash16 * self.slash16_equivalents

    def expected_session_probes(self) -> float:
        """Mean probes per source under the bounded-Pareto session model
        (continuous approximation; integer truncation in generation runs
        about half a probe lower)."""
        a = self.config.probes_pareto_shape
        low, high = float(self.config.probes_min), float(self.config.probes_max)
        if a == 1.0:
            return (log(high / low)) * low / (1.0 - low / high)
        num = (low**a) / (1 - (low / high) ** a)
        return num * a / (a - 1) * (low ** (1 - a) - high ** (1 - a))

    def expected_burst_factor(self) -> float:
        """Mean packets per touched destination, from the source mix.

        Backscatter sends one segment per destination; scanners follow
        the port-mix burst model (retries / exploit follow-ups).
        """
        retries = float(TCP_SYN_RETRIES)
        f = self.config.exploit_source_fraction
        scan_factor = 0.0
        for protocol, __, weight, tag in DEFAULT_PORT_MIX:
            if protocol == PROTO_UDP:
                scan_factor += weight * 1.0
            elif tag is not None:
                scan_factor += weight * (f * 2.0 + (1.0 - f) * retries)
            else:
                scan_factor += weight * retries
        scan_factor += _OTHER_PORT_WEIGHT * retries  # unpopular TCP tail
        bs = self.config.backscatter_fraction
        return bs * 1.0 + (1.0 - bs) * scan_factor

    def expected_packets_per_second(self) -> float:
        return (
            self.source_rate
            * self.expected_session_probes()
            * self.expected_burst_factor()
        )

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    #
    # A session draws from one generator reseeded with the session's own
    # stream seed (``SeedSequence.seed_of``), through its bound methods,
    # in the order and by the formulas ``RandomStream`` drew with: an
    # integer through ``randbelow`` (inlined per destination), a gap as
    # ``expovariate``'s ``-log(1.0 - random()) / rate``, a session size by
    # ``RandomStream.bounded_pareto``'s inverse CDF. A session stops
    # drawing once its clock passes the window: none of its later
    # arrivals would be kept, and the next session reseeds the generator.

    def _pick_profile(self, rng: Random) -> Tuple[int, int, str]:
        """A source's target service: ``(protocol, port, exploit payload
        or "")``."""
        mix = bisect_right(_PORT_MIX_BOUNDS, rng.random())  # the first bound above the roll
        if mix < len(DEFAULT_PORT_MIX):
            protocol, port, __, tag = DEFAULT_PORT_MIX[mix]
            exploit = rng.random() < self.config.exploit_source_fraction
            return protocol, port, tag if exploit and tag else ""
        # Unpopular tail: a random high port, never exploit-carrying.
        return PROTO_TCP, 1024 + randbelow(rng, 65536 - 1024), ""

    def _session_size(self, u: float) -> int:
        """Probes (or replies) of a session: bounded Pareto over
        ``[probes_min, probes_max]`` at the uniform draw ``u``."""
        high, span, exponent = self._pareto
        return int((high + u * span) ** exponent)

    def _backscatter_session(
        self, rng: Random, start: float, source: int, duration: float,
        appends: Tuple[Callable, ...],
    ) -> None:
        """One DDoS victim's responses to spoofed sources that happened
        to fall in the dark space: SYN/ACKs (service answered) or RSTs
        (no such service), from a well-known port, at the victim's reply
        rate, to uniformly random dark addresses."""
        add_time, add_key, add_payload, add_size, add_flags = appends
        random, getrandbits = rng.random, rng.getrandbits
        victim_port = _VICTIM_PORTS[randbelow(rng, len(_VICTIM_PORTS))]
        flags = _SYN_ACK if random() < 0.7 else _RST_ACK
        replies = self._session_size(random())
        total, bits, bases, offsets = self._flat
        t = start
        for __ in range(replies):
            if t >= duration:
                break
            index = getrandbits(bits)
            while index >= total:
                index = getrandbits(bits)
            port = getrandbits(16)
            while port >= _PORT_SPAN:
                port = getrandbits(16)
            add_time(t)
            add_key((source, victim_port, index + offsets[bisect_right(bases, index) - 1],
                     1024 + port, PROTO_TCP))
            add_payload("")
            add_size(40)
            add_flags(flags)
            t += -log(1.0 - random()) / PROBE_RATE_PER_SOURCE

    def _scan_session(
        self, rng: Random, start: float, source: int, duration: float,
        appends: Tuple[Callable, ...],
    ) -> None:
        """One scanner's session: a heavy-tailed number of probed
        destinations (a sequential sweep or uniform draws), each of which
        receives the source's burst. A source's burst has one shape: UDP
        probes are single datagrams (Slammer-style); TCP probes retransmit
        the SYN on the retry timer; exploit-carrying TCP sources instead
        deliver the payload after connecting. The packets of one burst
        share one arrival-key tuple."""
        add_time, add_key, add_payload, add_size, add_flags = appends
        random, getrandbits = rng.random, rng.getrandbits
        protocol, port, payload = self._pick_profile(rng)
        probes = self._session_size(random())
        total, bits, bases, offsets = self._flat
        sweep = random() < self.config.sequential_sweep_fraction
        cursor = randbelow(rng, total)
        src_port = 1024 + randbelow(rng, _PORT_SPAN)
        if protocol == PROTO_UDP:
            burst = ((0.0, payload, 40 + len(payload)),)
        elif payload:
            # The connection-opening SYN, then the exploit.
            burst = ((0.0, "", 40), (EXPLOIT_PAYLOAD_DELAY, payload, 40 + len(payload)))
        else:
            burst = _RETRY_BURST
        t = start
        for i in range(probes):
            if t >= duration:
                break
            if sweep:
                index = (cursor + i) % total
            else:
                index = getrandbits(bits)
                while index >= total:
                    index = getrandbits(bits)
            key = (source, src_port, index + offsets[bisect_right(bases, index) - 1],
                   port, protocol)
            for offset, packet_payload, size in burst:
                when = t + offset
                if when < duration:
                    add_time(when)
                    add_key(key)
                    add_payload(packet_payload)
                    add_size(size)
                    add_flags(0)
            t += -log(1.0 - random()) / PROBE_RATE_PER_SOURCE

    def generate(self, duration: float, max_records: Optional[int] = None) -> PacketColumns:
        """Every arrival of the sessions starting inside ``[0, duration)``
        as a trace sorted by time, cut to the first ``max_records`` rows
        if given. Sessions may run past ``duration``; arrivals beyond it
        are trimmed so the trace covers exactly the window. Rows go
        straight into the trace's columns as address values, one key
        tuple per destination burst, no per-packet object."""
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration!r}")
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive or None: {max_records!r}")
        seeds = self._seeds
        arrival = Random(seeds.seed_of("arrivals")).random
        rng = Random()  # reseeded per session: the state a new one would have
        columns = (array("d"), [], [], [], [])
        times = columns[0]
        appends = tuple(column.append for column in columns)
        rate = self.source_rate
        t = 0.0
        source_index = 0
        while True:
            t += -log(1.0 - arrival()) / rate
            if t >= duration:
                break
            rng.seed(seeds.seed_of(f"session-{source_index}"))
            source = random_external_address(rng, self.inventory.covers)
            if rng.random() < self.config.backscatter_fraction:
                self._backscatter_session(rng, t, source, duration, appends)
            else:
                self._scan_session(rng, t, source, duration, appends)
            source_index += 1
            if max_records is not None and len(times) >= max_records:
                break
        return PacketColumns(*columns).sorted_by_time(max_records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TelescopeWorkload {self.inventory.total_addresses} addrs"
            f" ~{self.expected_packets_per_second():.0f} pps>"
        )


@dataclass(frozen=True)
class PartitionedTelescope:
    """Per-shard telescope generation for a federated run.

    In deployment each /16's background radiation arrives through its
    own GRE tunnel, independent of the others — so the federated
    workload is one telescope *per shard*, over that shard's prefixes
    only, with a shard-derived seed
    (``SeedSequence(seed).spawn("shard-<i>")``). A shard's partition
    depends only on ``(config, shard_prefixes[i], i)``: any process —
    the in-process reference or any worker layout — generates the
    bit-identical trace for shard ``i``, which is what lets workers
    build their own slices from this picklable spec instead of shipping
    packet lists around.

    Source rates scale per shard exactly as :class:`TelescopeWorkload`
    scales with telescope size (``sources_per_second_per_slash16`` times
    the shard's /16 equivalents). Cross-shard traffic is *not* generated
    here; it arises inside the farm from federation-wide reflection.
    """

    shard_prefixes: Tuple[Tuple[str, ...], ...]
    duration: float
    config: TelescopeConfig = TelescopeConfig()
    max_records_per_shard: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.shard_prefixes:
            raise ValueError("a partitioned telescope needs shards")
        object.__setattr__(self, "shard_prefixes", tuple(
            tuple(prefixes) for prefixes in self.shard_prefixes
        ))
        for shard, prefixes in enumerate(self.shard_prefixes):
            if not prefixes:
                raise ValueError(f"shard {shard} has no prefixes")
            for text in prefixes:
                Prefix.parse(text)  # validate eagerly
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration!r}")
        if self.max_records_per_shard is not None and self.max_records_per_shard <= 0:
            raise ValueError(
                "max_records_per_shard must be positive or None:"
                f" {self.max_records_per_shard!r}"
            )

    @property
    def shard_count(self) -> int:
        return len(self.shard_prefixes)

    def shard_config(self, shard: int) -> TelescopeConfig:
        """The per-shard telescope config: same knobs, derived seed."""
        return replace(
            self.config,
            seed=SeedSequence(self.config.seed).spawn(f"shard-{shard}").root_seed,
        )

    def build(self, shard: int) -> PacketColumns:
        """Shard ``shard``'s complete trace (deterministic, process-free)."""
        workload = TelescopeWorkload(
            [Prefix.parse(text) for text in self.shard_prefixes[shard]],
            self.shard_config(shard),
        )
        return workload.generate(
            self.duration, max_records=self.max_records_per_shard
        )

    def build_all(self) -> List[PacketColumns]:
        return [self.build(shard) for shard in range(self.shard_count)]
