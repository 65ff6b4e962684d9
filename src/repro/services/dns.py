"""A minimal DNS responder for the "allow DNS" containment policy.

The paper's example of a *selectively permissive* containment policy is to
let honeypots resolve names — many worms and bots do a lookup before
propagating or phoning home, and refusing it would reveal the farm — while
still blocking everything else. The gateway redirects permitted DNS
queries to an internal resolver rather than the Internet, so even the
allowed traffic never leaves the farm. This class is that resolver.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addr import dotted
from repro.net.packet import PROTO_UDP, Packet

__all__ = ["DnsServer"]

#: The address every synthetic record resolves to: 198.18.0.1.
_ANSWER = 0xC6120001


class DnsServer:
    """Answers UDP/53 queries with deterministic synthetic records.

    Names are not parsed — any query payload gets an answer — because the
    experiments only need the *transaction* to complete. A query log is
    kept: in the real deployment, lookups by captured malware are
    themselves valuable intelligence (rendezvous domains).
    """

    def __init__(self, address: int, answer: Optional[int] = None) -> None:
        self.address = address
        self.answer = answer or _ANSWER
        self.queries_answered = 0
        self.query_log: List[Packet] = []

    def handle_query(self, packet: Packet) -> Optional[Packet]:
        """Answer a DNS query packet; returns the response or None if the
        packet is not a UDP/53 query addressed to this server."""
        if packet.protocol != PROTO_UDP or packet.dst_port != 53:
            return None
        if packet.dst != self.address:
            return None
        self.queries_answered += 1
        self.query_log.append(packet)
        answer = f"dns:answer:{dotted(self.answer)}"
        return packet.reply_template(payload=answer, size=90)

    def rendezvous_domains(self) -> List[str]:
        """Domains captured malware tried to resolve, in query order.

        Queries carry payloads of the form ``dns:query:<domain>``; bare
        ``dns:query`` payloads (no domain encoded) are skipped. These are
        the farm's rendezvous intelligence: the names a worm or bot uses
        to find its controller.
        """
        domains = []
        for query in self.query_log:
            __, __, domain = query.payload.partition("dns:query:")
            if domain:
                domains.append(domain)
        return domains

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DnsServer {dotted(self.address)} answered={self.queries_answered}>"
