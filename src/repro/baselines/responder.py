"""A stateless low-interaction responder (honeyd / iSink class).

The scalable-but-shallow end of the design space the paper positions
Potemkin against: a single process that answers probes to an arbitrary
amount of address space with canned protocol responses. It needs no VMs,
no cloning, and no per-address memory — and it can never actually be
*infected*, so it observes scans but captures no malware behaviour.

Replies come from the fidelity ladder's :func:`emulator_replies` — the
same guest-parity reply function the emulator tier uses — and each dark
address answers with the personality the farm config would assign it,
via a :class:`PersonalityRegistry` plus an optional address→name lookup.
That keeps fidelity comparisons apples-to-apples at the packet level:
the difference from a farm is that exploits bounce off
(``would_have_infected`` counts the missed captures) and no second-stage
behaviour ever occurs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.fidelity.emulator import emulator_replies
from repro.net.addr import AddressSpaceInventory
from repro.net.packet import Packet
from repro.services.personality import Personality, PersonalityRegistry
from repro.services.vulnerabilities import EXPLOIT_PREFIX

__all__ = ["StatelessResponder"]


class StatelessResponder:
    """Answers probes to a whole dark space with per-address personality
    responses, keeping no per-address state.

    ``personality_for`` maps a dark address to a personality name (e.g.
    ``config.personality_for_address`` partially applied); when omitted,
    every address presents ``default_personality``.
    """

    def __init__(
        self,
        inventory: AddressSpaceInventory,
        personalities: PersonalityRegistry,
        personality_for: Optional[Callable[[int], str]] = None,
        default_personality: str = "windows-default",
    ) -> None:
        self.inventory = inventory
        self.personalities = personalities
        self.personality_for = personality_for
        self.default_personality = default_personality
        self.packets_seen = 0
        self.replies_sent = 0
        self.would_have_infected = 0
        self.exploit_attempts_by_tag: Dict[str, int] = {}

    def personality_at(self, addr: int) -> Personality:
        """The personality impersonating one dark address."""
        if self.personality_for is not None:
            return self.personalities.get(self.personality_for(addr))
        return self.personalities.get(self.default_personality)

    def handle_packet(self, packet: Packet) -> List[Packet]:
        """Reply to one probe; mirrors the guest's synchronous behaviour
        minus infection and memory effects."""
        if not self.inventory.covers(packet.dst):
            return []
        self.packets_seen += 1
        if packet.payload.startswith(EXPLOIT_PREFIX):
            self.exploit_attempts_by_tag[packet.payload] = (
                self.exploit_attempts_by_tag.get(packet.payload, 0) + 1
            )
            self.would_have_infected += 1
        replies = emulator_replies(self.personality_at(packet.dst), packet)
        self.replies_sent += len(replies)
        return replies

    @property
    def capture_count(self) -> int:
        """Malware captures: always zero — the point of the comparison."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StatelessResponder seen={self.packets_seen}"
            f" missed_captures={self.would_have_infected}>"
        )
