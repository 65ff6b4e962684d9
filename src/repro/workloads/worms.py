"""Worm specifications and the Internet-scale outbreak model.

Two distinct roles:

* :class:`WormSpec` describes a worm's mechanics (service targeted,
  exploit tag, scan rate) and converts to the
  :class:`~repro.services.guest.ScanBehavior` an infected *honeypot*
  executes — how the worm behaves inside the farm.
* :class:`InternetOutbreak` models the worm spreading across the
  *outside* Internet and computes the stream of scans that happens to
  fall into the telescope's dark space — how the worm arrives at the
  farm. The epidemic follows the classic logistic (SI random-scanning)
  dynamics used throughout the worm literature: with ``N`` vulnerable
  hosts, per-host scan rate ``s``, and address-space hit probability
  ``N / 2^32``, prevalence grows as ``I(t) = N / (1 + ((N-I0)/I0)
  e^{-βt})`` with ``β = s·N/2^32``. The telescope sees a Poisson stream
  with instantaneous rate ``I(t) · s · (telescope_size / 2^32)``.

``KNOWN_WORMS`` carries era-accurate parameters for the population the
default vulnerability catalog models (Slammer's published 4,000 scans/s
per host is kept, but outbreak experiments usually scale it down — the
knob is explicit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet, TcpFlags
from repro.services.guest import ScanBehavior
from repro.sim.metrics import TimeSeries
from repro.sim.process import Sleep, spawn
from repro.sim.rand import RandomStream

__all__ = ["WormSpec", "KNOWN_WORMS", "OutbreakConfig", "InternetOutbreak"]


@dataclass(frozen=True)
class WormSpec:
    """A worm's propagation mechanics."""

    name: str
    protocol: int
    port: int
    exploit_tag: str
    scan_rate: float  # scans/second per infected host
    payload_size: int = 376
    dns_lookup_first: bool = False
    targeting: str = "uniform"

    def __post_init__(self) -> None:
        if self.scan_rate <= 0:
            raise ValueError(f"scan_rate must be positive: {self.scan_rate!r}")
        if self.targeting not in ("uniform", "local"):
            raise ValueError(f"unknown targeting strategy: {self.targeting!r}")

    def behavior(self, dns_server: Optional[IPAddress] = None) -> ScanBehavior:
        """The in-farm behaviour an infected honeypot executes."""
        return ScanBehavior(
            worm_name=self.name,
            protocol=self.protocol,
            dst_port=self.port,
            exploit_tag=self.exploit_tag,
            scan_rate=self.scan_rate,
            payload_size=self.payload_size,
            dns_lookup_first=self.dns_lookup_first and dns_server is not None,
            dns_server=dns_server if self.dns_lookup_first else None,
            targeting=self.targeting,
        )

    def with_scan_rate(self, scan_rate: float) -> "WormSpec":
        """A copy scaled to a different per-host scan rate (simulation
        budget knob; dynamics shape is preserved)."""
        return replace(self, scan_rate=scan_rate)


KNOWN_WORMS: Dict[str, WormSpec] = {
    "slammer": WormSpec(
        name="slammer",
        protocol=PROTO_UDP,
        port=1434,
        exploit_tag="exploit:slammer",
        scan_rate=4000.0,  # single-UDP-packet worm; bandwidth-limited
        payload_size=404,
    ),
    "codered": WormSpec(
        name="codered",
        protocol=PROTO_TCP,
        port=80,
        exploit_tag="exploit:codered",
        scan_rate=10.0,
        payload_size=4039,
    ),
    "blaster": WormSpec(
        name="blaster",
        protocol=PROTO_TCP,
        port=135,
        exploit_tag="exploit:blaster",
        scan_rate=11.0,
        payload_size=1800,
        dns_lookup_first=True,  # Blaster resolved windowsupdate.com for its DDoS
    ),
    "sasser": WormSpec(
        name="sasser",
        protocol=PROTO_TCP,
        port=445,
        exploit_tag="exploit:sasser",
        scan_rate=120.0,
        payload_size=2100,
    ),
    "nimda": WormSpec(
        name="nimda",
        protocol=PROTO_TCP,
        port=80,
        exploit_tag="exploit:nimda",
        scan_rate=25.0,
        payload_size=3200,
        targeting="local",  # Nimda strongly preferred nearby addresses
    ),
    "witty": WormSpec(
        name="witty",
        protocol=PROTO_UDP,
        port=4000,
        exploit_tag="exploit:witty",
        scan_rate=357.0,  # bandwidth-limited single-UDP-packet worm
        payload_size=1100,
    ),
}


@dataclass(frozen=True)
class OutbreakConfig:
    """Parameters of an Internet-scale outbreak.

    ``telescope_fraction`` defaults to the farm's true share of IPv4
    (total dark addresses / 2^32); experiments may raise it to compress
    wall-clock (equivalent to observing a proportionally larger
    telescope — the arrival *process* shape is unchanged).

    ``in_farm_scan_rate`` optionally rescales the worm's scan rate *as
    executed by compromised honeypots* without touching the external
    epidemic dynamics. A Slammer-class worm scans at 4,000/s; simulating
    every reflected scan of every captured instance at that rate buys no
    additional insight (the containment interaction is rate-independent)
    and dominates simulation cost, so observation-side rates are a
    budget knob. ``None`` keeps the worm's native rate.
    """

    vulnerable_population: int = 350_000  # Code-Red-scale
    initially_infected: int = 10
    telescope_fraction: Optional[float] = None
    in_farm_scan_rate: Optional[float] = None
    tick_seconds: float = 1.0
    seed: int = 31

    def __post_init__(self) -> None:
        if self.vulnerable_population <= 0:
            raise ValueError("vulnerable_population must be positive")
        if not (0 < self.initially_infected <= self.vulnerable_population):
            raise ValueError(
                "initially_infected must be in [1, vulnerable_population]"
            )
        if self.telescope_fraction is not None and not (
            0.0 < self.telescope_fraction <= 1.0
        ):
            raise ValueError("telescope_fraction must be in (0, 1]")
        if self.in_farm_scan_rate is not None and self.in_farm_scan_rate <= 0:
            raise ValueError("in_farm_scan_rate must be positive or None")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")


class InternetOutbreak:
    """Drives one worm's external epidemic into a farm.

    Usage::

        outbreak = InternetOutbreak(farm, KNOWN_WORMS["codered"], OutbreakConfig())
        outbreak.start()
        farm.run(until=600)
        outbreak.prevalence_series  # external I(t) for the figure

    ``start()`` also registers the worm's in-farm behaviour, so honeypots
    compromised by arriving scans propagate (subject to containment).
    """

    def __init__(
        self,
        farm: Honeyfarm,
        worm: WormSpec,
        config: Optional[OutbreakConfig] = None,
    ) -> None:
        self.farm = farm
        self.worm = worm
        self.config = config or OutbreakConfig()
        self.rng = RandomStream(self.config.seed, name=f"outbreak-{worm.name}")
        self.prevalence_series = TimeSeries(f"{worm.name}.external_prevalence")
        self.scans_delivered = 0
        self._started = False

    # ------------------------------------------------------------------ #
    # Epidemic mathematics
    # ------------------------------------------------------------------ #

    @property
    def beta(self) -> float:
        """Logistic growth rate: scan_rate × N / 2^32."""
        return self.worm.scan_rate * self.config.vulnerable_population / 2**32

    def prevalence(self, t: float) -> float:
        """Infected population at time ``t`` (continuous logistic)."""
        n = float(self.config.vulnerable_population)
        i0 = float(self.config.initially_infected)
        if i0 >= n:
            return n
        ratio = (n - i0) / i0
        return n / (1.0 + ratio * math.exp(-self.beta * t))

    def telescope_fraction(self) -> float:
        if self.config.telescope_fraction is not None:
            return self.config.telescope_fraction
        return self.farm.inventory.total_addresses / 2**32

    def arrival_rate(self, t: float) -> float:
        """Scans/second falling into the telescope at time ``t``."""
        return self.prevalence(t) * self.worm.scan_rate * self.telescope_fraction()

    def time_to_prevalence(self, fraction: float) -> float:
        """When the epidemic reaches ``fraction`` of the vulnerable
        population (analytic inverse of the logistic)."""
        if not (0.0 < fraction < 1.0):
            raise ValueError("fraction must be in (0, 1)")
        n = float(self.config.vulnerable_population)
        i0 = float(self.config.initially_infected)
        target = fraction * n
        ratio = (n - i0) / i0
        return math.log(ratio * target / (n - target)) / self.beta

    # ------------------------------------------------------------------ #
    # Driving the farm
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Register in-farm behaviour and begin delivering scans."""
        if self._started:
            raise ValueError("outbreak already started")
        self._started = True
        in_farm = self.worm
        if self.config.in_farm_scan_rate is not None:
            in_farm = self.worm.with_scan_rate(self.config.in_farm_scan_rate)
        self.farm.register_worm(in_farm.behavior(self.farm.dns_server.address))
        spawn(self.farm.sim, self._drive(), name=f"outbreak-{self.worm.name}")

    def _drive(self):
        start_time = self.farm.sim.now
        while True:
            t = self.farm.sim.now - start_time
            self.prevalence_series.record(self.farm.sim.now, self.prevalence(t))
            expected = self.arrival_rate(t) * self.config.tick_seconds
            count = self.rng.poisson(expected)
            for __ in range(count):
                offset = self.rng.uniform(0.0, self.config.tick_seconds)
                packet = self._scan_packet()
                self.farm.sim.schedule(offset, self.farm.inject, packet)
                self.scans_delivered += 1
            yield Sleep(self.config.tick_seconds)

    def _scan_packet(self) -> Packet:
        total = self.farm.inventory.total_addresses
        dst = self.farm.inventory.address_at_flat_index(self.rng.randint(0, total - 1))
        src = IPAddress(self.rng.randint(0x01000000, 0xDFFFFFFF))
        worm = self.worm
        flags = TcpFlags.NONE
        if worm.protocol == PROTO_TCP:  # a data segment, or a bare SYN
            flags = TcpFlags.PSH | TcpFlags.ACK if worm.exploit_tag else TcpFlags.SYN
        return Packet(
            src, dst, worm.protocol, 1024 + self.rng.randint(0, 60000), worm.port,
            flags, 0, worm.exploit_tag, worm.payload_size,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InternetOutbreak {self.worm.name} N={self.config.vulnerable_population}"
            f" beta={self.beta:.4g}/s delivered={self.scans_delivered}>"
        )
