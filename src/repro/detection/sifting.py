"""Content sifting at the gateway (Earlybird/Autograph-class).

The insight from the content-sifting literature the paper's group built
alongside Potemkin: worm traffic is *prevalent* (the same payload
repeats) and *dispersed* (it flows between many distinct sources and
destinations), while benign traffic rarely combines both. The sifter
watches every inbound payload at the gateway and raises a
:class:`WormAlert` for any payload whose

* occurrence count reaches ``prevalence_threshold``, and
* distinct source count reaches ``source_threshold``, and
* distinct destination count reaches ``destination_threshold``.

State is bounded: per-payload source/destination sets are capped (counts
keep rising after the cap, the sets just stop growing), and only the
``max_tracked`` most-recently-seen payloads are retained, evicting the
least-recently-seen — the same scaling compromises real sifters make.

Payload semantics: the reproduction's packets carry semantic tags, so
"payload" here is the tag; a real deployment would sift Rabin
fingerprints of byte content. Response payloads (``banner:*`` and DNS
answers) and empty payloads are never sifted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.net.packet import Packet
from repro.services.vulnerabilities import EXPLOIT_PREFIX

__all__ = ["SifterConfig", "WormAlert", "ContentSifter"]


@dataclass(frozen=True)
class SifterConfig:
    """Detection thresholds and state bounds."""

    prevalence_threshold: int = 20
    source_threshold: int = 3
    destination_threshold: int = 10
    max_tracked_payloads: int = 4096
    max_addresses_per_payload: int = 256

    def __post_init__(self) -> None:
        if self.prevalence_threshold < 1:
            raise ValueError("prevalence_threshold must be >= 1")
        if self.source_threshold < 1 or self.destination_threshold < 1:
            raise ValueError("address thresholds must be >= 1")
        if self.max_tracked_payloads < 1:
            raise ValueError("max_tracked_payloads must be >= 1")
        if self.max_addresses_per_payload < 1:
            raise ValueError("max_addresses_per_payload must be >= 1")


@dataclass
class WormAlert:
    """A payload that crossed all three thresholds."""

    payload: str
    time: float
    prevalence: int
    distinct_sources: int
    distinct_destinations: int
    protocol: int
    dst_port: int

    @property
    def is_known_exploit(self) -> bool:
        """Whether the flagged payload is a catalogued exploit tag (the
        reproduction's ground truth; a real sifter cannot know this)."""
        return self.payload.startswith(EXPLOIT_PREFIX)


class _PayloadState:
    __slots__ = ("count", "sources", "destinations", "protocol", "dst_port", "alerted")

    def __init__(self, protocol: int, dst_port: int) -> None:
        self.count = 0
        self.sources: Set[int] = set()
        self.destinations: Set[int] = set()
        self.protocol = protocol
        self.dst_port = dst_port
        self.alerted = False


class ContentSifter:
    """Streaming prevalence × dispersion detector; see module docstring.

    Install as the gateway's ``packet_tap`` or call :meth:`observe`
    directly. ``on_alert`` fires once per distinct payload.
    """

    _IGNORED_PREFIXES = ("banner:", "dns:")

    def __init__(
        self,
        config: Optional[SifterConfig] = None,
        on_alert: Optional[Callable[[WormAlert], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config or SifterConfig()
        self.on_alert = on_alert
        self.clock = clock or (lambda: 0.0)
        self.alerts: List[WormAlert] = []
        self.packets_observed = 0
        self.payloads_evicted = 0
        self._state: "OrderedDict[str, _PayloadState]" = OrderedDict()

    # ------------------------------------------------------------------ #

    def observe(self, packet: Packet) -> Optional[WormAlert]:
        """Account one inbound packet; returns a new alert if one fired."""
        self.packets_observed += 1
        payload = packet.payload
        if not payload or payload.startswith(self._IGNORED_PREFIXES):
            return None

        state = self._state.get(payload)
        if state is None:
            state = _PayloadState(packet.protocol, packet.dst_port)
            self._state[payload] = state
            self._evict_if_needed()
        else:
            self._state.move_to_end(payload)

        state.count += 1
        cap = self.config.max_addresses_per_payload
        if len(state.sources) < cap:
            state.sources.add(packet.src)
        if len(state.destinations) < cap:
            state.destinations.add(packet.dst)

        if state.alerted:
            return None
        if (
            state.count >= self.config.prevalence_threshold
            and len(state.sources) >= self.config.source_threshold
            and len(state.destinations) >= self.config.destination_threshold
        ):
            state.alerted = True
            alert = WormAlert(
                payload=payload,
                time=self.clock(),
                prevalence=state.count,
                distinct_sources=len(state.sources),
                distinct_destinations=len(state.destinations),
                protocol=state.protocol,
                dst_port=state.dst_port,
            )
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)
            return alert
        return None

    def _evict_if_needed(self) -> None:
        while len(self._state) > self.config.max_tracked_payloads:
            self._state.popitem(last=False)
            self.payloads_evicted += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def prevalence_of(self, payload: str) -> int:
        state = self._state.get(payload)
        return state.count if state is not None else 0

    def tracked_payloads(self) -> int:
        return len(self._state)

    def alert_for(self, payload: str) -> Optional[WormAlert]:
        for alert in self.alerts:
            if alert.payload == payload:
                return alert
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ContentSifter tracked={len(self._state)}"
            f" alerts={len(self.alerts)} seen={self.packets_observed}>"
        )
