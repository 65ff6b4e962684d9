"""The fidelity ladder's promotion rule.

One inbound packet, its flow's state inside the emulated session and the
personality impersonated decide whether the conversation has earned a
real VM. The rule runs *before* the packet is emulated, so the
triggering packet is never answered by the emulator — it takes the
clone-and-queue path and is delivered (live) to the promoted VM, which
keeps a promoted flow's replies identical to a clone-always farm's.
"""

from __future__ import annotations

from typing import Optional

from repro.fidelity.emulator import FlowProgress
from repro.net.packet import Packet
from repro.services.personality import Personality
from repro.services.vulnerabilities import VulnerabilityCatalog

__all__ = [
    "PROMOTE_PAYLOAD_BYTES", "PROMOTE_STATE_DEPTH", "TRIGGER_NAMES",
    "promotion_trigger", "vuln_probe",
]

#: A flow that has carried this many payload bytes is pushing data, not
#: scanning; the emulator's canned responses will not fool it much longer.
PROMOTE_PAYLOAD_BYTES = 512
#: A flow this many application exchanges deep is where low-interaction
#: tells (the Cowrie literature's fingerprinting problem) start to show.
PROMOTE_STATE_DEPTH = 8
#: Promotion causes in priority order (a vuln probe that also crosses a
#: byte threshold counts as ``vuln_probe``): ``ladder.promotions.<name>``.
TRIGGER_NAMES = ("vuln_probe", "payload_bytes", "state_depth")


def vuln_probe(
    catalog: VulnerabilityCatalog, personality: Personality, packet: Packet
) -> bool:
    """Whether ``packet`` exploits a vulnerability ``personality`` has:
    unpromoted, the infection — the farm's purpose — would bounce off the
    emulator. Probes for vulnerabilities it lacks do *not* promote; a real
    guest shrugs them off with a banner, and so does the emulator."""
    vuln = catalog.match(packet)
    return vuln is not None and vuln.name in personality.vulnerability_names


def promotion_trigger(
    catalog: VulnerabilityCatalog,
    personality: Personality,
    state: FlowProgress,
    packet: Packet,
) -> Optional[str]:
    """The :data:`TRIGGER_NAMES` entry promoting ``packet``'s flow, or None."""
    if vuln_probe(catalog, personality, packet):
        return "vuln_probe"
    if state.payload_bytes >= PROMOTE_PAYLOAD_BYTES:
        return "payload_bytes"
    if state.exchanges >= PROMOTE_STATE_DEPTH:
        return "state_depth"
    return None
