"""Pluggable promotion triggers for the fidelity ladder.

A trigger inspects one inbound packet, the state of its flow inside the
emulated session, and the personality being impersonated, and decides
whether the conversation has earned a real VM. Triggers are evaluated in
registration order *before* the packet is emulated, so the triggering
packet itself is never answered by the emulator — it takes the normal
clone-and-queue path and is delivered (live) to the promoted VM, which
is what keeps a promoted flow's replies identical to a clone-always
farm's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.config import LadderConfig
from repro.fidelity.emulator import FlowState
from repro.net.packet import Packet
from repro.services.personality import Personality
from repro.services.vulnerabilities import VulnerabilityCatalog

__all__ = [
    "PayloadBytesTrigger",
    "PromotionTrigger",
    "StateDepthTrigger",
    "VulnProbeTrigger",
    "default_triggers",
    "empty_payload_rule",
]


class PromotionTrigger:
    """Base class; ``name`` labels promotion metrics and events."""

    name = "trigger"

    def should_promote(
        self, personality: Personality, flow: FlowState, packet: Packet
    ) -> bool:
        raise NotImplementedError


class VulnProbeTrigger(PromotionTrigger):
    """The packet exploits a vulnerability this personality actually
    has: without a promotion the infection — the farm's entire purpose —
    would bounce off the emulator. Probes for vulnerabilities the
    personality lacks do *not* promote; a real guest would shrug them
    off with a banner, and so does the emulator."""

    name = "vuln_probe"

    def __init__(self, catalog: VulnerabilityCatalog) -> None:
        self.catalog = catalog

    def should_promote(self, personality, flow, packet) -> bool:
        vuln = self.catalog.match(packet)
        return vuln is not None and vuln.name in personality.vulnerability_names


class PayloadBytesTrigger(PromotionTrigger):
    """The flow has carried at least ``threshold`` payload bytes —
    somebody is pushing data, not scanning; the emulator's canned
    responses will not fool them much longer."""

    name = "payload_bytes"

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def should_promote(self, personality, flow, packet) -> bool:
        return flow.payload_bytes >= self.threshold


class StateDepthTrigger(PromotionTrigger):
    """The flow reached ``threshold`` application exchanges — a
    conversation deep enough that low-interaction tells (the
    fingerprinting problem the Cowrie literature documents) start to
    show."""

    name = "state_depth"

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def should_promote(self, personality, flow, packet) -> bool:
        return flow.exchanges >= self.threshold


def default_triggers(
    config: LadderConfig, catalog: VulnerabilityCatalog
) -> List[PromotionTrigger]:
    """The trigger stack a :class:`LadderConfig` describes, in priority
    order (most semantically meaningful first, so promotion metrics
    attribute a vuln probe to ``vuln_probe`` even if it also crosses a
    byte threshold)."""
    triggers: List[PromotionTrigger] = []
    if config.promote_on_vuln_probe:
        triggers.append(VulnProbeTrigger(catalog))
    if config.promote_payload_bytes is not None:
        triggers.append(PayloadBytesTrigger(config.promote_payload_bytes))
    if config.promote_state_depth is not None:
        triggers.append(StateDepthTrigger(config.promote_state_depth))
    return triggers


def empty_payload_rule(
    triggers: Sequence[PromotionTrigger],
) -> Optional[Tuple[Tuple[VulnProbeTrigger, ...], float, float]]:
    """What ``triggers`` can say about a packet with an empty payload,
    in a form that needs no packet per arrival (the span lane's terms):
    ``(probes, payload_bytes, state_depth)``.

    Such a packet advances neither flow counter, so the byte and depth
    triggers fire on it exactly when the flow already stands at their
    threshold (``inf`` when the trigger is absent), and a vuln probe's
    verdict depends only on packet fields that are constant per
    ``(personality, protocol, port, flags)`` class — ``probes`` are the
    triggers to ask once per class. ``None`` when the stack holds a
    trigger this module does not define: only its ``should_promote``,
    packet in hand, can say.
    """
    probes: List[VulnProbeTrigger] = []
    payload_bytes = state_depth = float("inf")
    for trigger in triggers:
        kind = type(trigger)
        if kind is VulnProbeTrigger:
            probes.append(trigger)
        elif kind is PayloadBytesTrigger:
            payload_bytes = min(payload_bytes, trigger.threshold)
        elif kind is StateDepthTrigger:
            state_depth = min(state_depth, trigger.threshold)
        else:
            return None
    return tuple(probes), payload_bytes, state_depth
