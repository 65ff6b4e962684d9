"""The fidelity ladder: emulator tier, promotion engine, state handoff.

Potemkin binds a VM to an address only when a packet arrives; this
package pushes late binding one rung further. Most telescope traffic
never gets past a banner exchange, so the ladder answers cold-address
packets from a lightweight protocol emulator (personality-faithful,
SIPHON/Cowrie class) and *promotes* a flow to a real flash clone only
when the promotion rule decides the conversation got interesting — a
vulnerability probe, enough payload, enough protocol depth. A handoff
record replays the emulated prefix of the conversation into the fresh
VM so the attacker sees one continuous session.

See ``docs/FIDELITY.md`` for the design and the ablation.
"""

from repro.fidelity.emulator import EmulatedSession, FlowState, emulator_replies
from repro.fidelity.handoff import HandoffRecord
from repro.fidelity.ladder import FidelityLadder, LadderVerdict
from repro.fidelity.triggers import (
    PROMOTE_PAYLOAD_BYTES,
    PROMOTE_STATE_DEPTH,
    TRIGGER_NAMES,
    promotion_trigger,
    vuln_probe,
)

__all__ = [
    "EmulatedSession",
    "FidelityLadder",
    "FlowState",
    "HandoffRecord",
    "LadderVerdict",
    "PROMOTE_PAYLOAD_BYTES",
    "PROMOTE_STATE_DEPTH",
    "TRIGGER_NAMES",
    "emulator_replies",
    "promotion_trigger",
    "vuln_probe",
]
