"""Border routers that divert dark-space traffic into the honeyfarm.

Each participating network runs a border router configured with the dark
prefixes it contributes. Inbound packets destined for those prefixes are
GRE-encapsulated and forwarded over a link to the gateway; everything else
follows the normal routing path (modelled as a counter — the simulator
does not carry production traffic). In the reverse direction the router
decapsulates honeypot replies arriving from the gateway and emits them
toward the original remote host.

The router is where the illusion starts: from the outside, replies appear
to come from the dark addresses themselves.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.net.addr import Prefix
from repro.net.gre import GrePacket, GreTunnel, decapsulate, encapsulate
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.metrics import MetricRegistry

__all__ = ["BorderRouter"]


class BorderRouter:
    """A border router contributing dark prefixes to the honeyfarm.

    Parameters
    ----------
    tunnel:
        The GRE tunnel descriptor naming this router and the gateway.
    dark_prefixes:
        Prefixes whose traffic is diverted.
    uplink:
        Link carrying GRE packets to the gateway.
    external_sink:
        Callback receiving decapsulated honeypot replies headed back to
        the Internet (the workload layer observes these to close loops,
        e.g. a scanner noticing its probe was answered).
    """

    def __init__(
        self,
        tunnel: GreTunnel,
        dark_prefixes: Iterable[Prefix],
        uplink: Link,
        external_sink: Optional[Callable[[Packet], None]] = None,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.tunnel = tunnel
        self.dark_prefixes: List[Prefix] = list(dark_prefixes)
        if not self.dark_prefixes:
            raise ValueError("a border router must contribute at least one prefix")
        self.uplink = uplink
        self.external_sink = external_sink
        self.metrics = metrics or MetricRegistry()

    def covers(self, addr: int) -> bool:
        """Whether ``addr`` is in a prefix this router diverts."""
        return any(p.contains(addr) for p in self.dark_prefixes)

    # ------------------------------------------------------------------ #
    # Internet -> honeyfarm
    # ------------------------------------------------------------------ #

    def receive_from_internet(self, packet: Packet) -> bool:
        """Handle a packet arriving from the Internet side.

        Returns True if the packet was diverted to the honeyfarm, False if
        it followed the normal routing path (counted and dropped here).
        """
        if packet.ttl <= 0:
            self.metrics.counter("router.ttl_expired").increment()
            return False
        if not self.covers(packet.dst):
            self.metrics.counter("router.passthrough").increment()
            return False
        packet.ttl -= 1
        gre = encapsulate(self.tunnel, packet)
        self.metrics.counter("router.diverted").increment()
        self.uplink.deliver(gre, gre.size)
        return True

    # ------------------------------------------------------------------ #
    # honeyfarm -> Internet
    # ------------------------------------------------------------------ #

    def receive_from_gateway(self, gre: GrePacket) -> None:
        """Decapsulate a honeypot reply and emit it toward the Internet."""
        if gre.tunnel.key != self.tunnel.key:
            self.metrics.counter("router.wrong_tunnel").increment()
            return
        packet = decapsulate(gre)
        self.metrics.counter("router.replies_out").increment()
        if self.external_sink is not None:
            self.external_sink(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BorderRouter key={self.tunnel.key}"
            f" prefixes={[str(p) for p in self.dark_prefixes]}>"
        )
