"""State-handoff records: what a promotion carries into the fresh VM.

When a trigger fires mid-conversation, the emulator's absorbed prefix of
the session is packaged into a :class:`HandoffRecord`. Once the flash
clone is running, the gateway replays the buffered packets into the VM
with replies suppressed — the emulator already answered them, and the
guest's reply function is byte-identical, so replaying the replies would
duplicate what the attacker has already seen. The replay rebuilds the
guest-side state (connection counters, dirtied pages) so the *next*
packet of the conversation lands on a VM that behaves as if it had
served the session from the first SYN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.packet import Packet

__all__ = ["HandoffRecord"]


@dataclass
class HandoffRecord:
    """One promotion's conversation state, awaiting a running VM.

    ``buffered`` holds the absorbed packets in arrival order (bounded by
    ``FidelityLadder.MAX_HANDOFF_PACKETS``; ``buffer_dropped`` counts the
    oldest packets evicted when the bound was hit). ``banner`` is the
    last service banner the emulator sent — the negotiated application
    state the VM's personality must match. ``created_at`` stamps the
    promotion instant; the gateway measures handoff latency against it.
    """

    ip: int
    created_at: float
    trigger: str
    buffered: List[Packet] = field(default_factory=list)
    flows: int = 0
    payload_bytes: int = 0
    banner: Optional[str] = None
    buffer_dropped: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HandoffRecord {self.ip} trigger={self.trigger}"
            f" buffered={len(self.buffered)} flows={self.flows}>"
        )
