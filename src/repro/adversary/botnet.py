"""Multi-stage botnet campaigns.

A :class:`BotnetCampaign` drives the full bot lifecycle through the
existing worm/flow machinery rather than a parallel code path: the
campaign registers a C2-flavoured :class:`ScanBehavior` for its worm
(check-in beaconing to the attacker's server, locality-biased lateral
targeting), injects the initial compromises from the C2 address, then
pushes a staged second payload to every victim it learns of. Lateral
movement is emergent — infected guests run their normal scan loops, so
under ``reflect`` containment the campaign hops VM-to-VM inside the
farm, chaining infection generations exactly like a real outbreak.

Every C2 check-in, payload push, and lateral flow rides the gateway's
ordinary dispatch/containment/ledger paths, which is what the
CampaignLedgerOracle leans on: nothing the campaign does can move a
packet that the conservation ledger does not see.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.adversary.base import AdversaryAgent, is_checkin
from repro.net.addr import dotted
from repro.net.packet import PROTO_UDP, TcpFlags, tcp_packet, udp_packet
from repro.services.guest import InfectionRecord
from repro.workloads.worms import KNOWN_WORMS

__all__ = ["BotnetCampaign"]

#: Seconds between a victim's compromise and its stage-2 payload push.
STAGE2_DELAY = 2.0

#: Default bot check-in cadence.
BEACON_INTERVAL = 1.5

#: In-farm scan-rate ceiling for campaign bots (the conformance worlds'
#: worm throttle).
BOT_SCAN_RATE = 2.0

#: Stage-2 pushes stop after this many victims — a real C2 stages the
#: payload to the footholds it needs, not the whole epidemic.
MAX_STAGE2_PUSHES = 8

_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


class BotnetCampaign(AdversaryAgent):
    """C2 check-in, staged payload download, lateral movement."""

    kind = "botnet"

    def __init__(
        self,
        *args,
        worm: str = "slammer",
        beacon_interval: float = BEACON_INTERVAL,
        **kwargs,
    ) -> None:
        if worm not in KNOWN_WORMS:
            raise ValueError(f"unknown worm {worm!r}")
        kwargs.setdefault("tier", 0)
        super().__init__(*args, **kwargs)
        self.worm = worm
        self.beacon_interval = beacon_interval
        self._stage2_scheduled = 0

    # -- stages ----------------------------------------------------------- #

    def _begin(self) -> None:
        self._count("campaigns")
        spec = KNOWN_WORMS[self.worm].with_scan_rate(BOT_SCAN_RATE)
        bot = replace(
            spec.behavior(),
            cnc_server=self.source,
            beacon_interval=self.beacon_interval,
            targeting="local",
        )
        self.farm.register_worm(bot)
        for i, target in enumerate(self.targets):
            self._send_exploit(target, i)

    def _send_exploit(self, target, index: int) -> None:
        spec = KNOWN_WORMS[self.worm]
        if spec.protocol == PROTO_UDP:
            packet = udp_packet(
                self.source, target, 50000 + index, spec.port,
                payload=spec.exploit_tag, size=404,
            )
        else:
            packet = tcp_packet(
                self.source, target, 50000 + index, spec.port,
                flags=_PSH_ACK, payload=spec.exploit_tag, size=404,
            )
        self.inject(packet)

    def _push_stage2(self, victim) -> None:
        if self._terminal:
            return
        self.report.stage2_pushed += 1
        self._emit("stage2", victim=dotted(victim))
        spec = KNOWN_WORMS[self.worm]
        payload = f"stage:{self.worm}:2"
        # Port derives from the victim address, not push order: infection
        # *order* legitimately varies across clone modes, and the
        # equivalence oracles compare egress as a timing-free multiset.
        src_port = 51000 + (victim % 4096)
        if spec.protocol == PROTO_UDP:
            packet = udp_packet(
                self.source, victim, src_port, spec.port, payload=payload,
            )
        else:
            packet = tcp_packet(
                self.source, victim, src_port, spec.port,
                flags=_PSH_ACK, payload=payload,
            )
        self.inject(packet)

    # -- observation ------------------------------------------------------ #

    def _on_infection(self, record: InfectionRecord) -> None:
        super()._on_infection(record)
        if record.worm_name != self.worm:
            return
        if record.generation >= 1:
            self.report.lateral_infections += 1
            self._emit(
                "lateral", victim=dotted(record.victim),
                generation=record.generation,
            )
        # Stage only the campaign's own direct compromises: the C2 has
        # no channel to learn of trace-driven or lateral victims (its
        # check-ins are contained), and the direct set is identical in
        # every world while lateral arrival order is not.
        if record.source != self.source:
            return
        # Cap at schedule time: a burst of infections lands well before
        # the first delayed push runs, so the executed counter lags.
        if self._stage2_scheduled < MAX_STAGE2_PUSHES:
            self._stage2_scheduled += 1
            self.farm.sim.schedule(STAGE2_DELAY, self._push_stage2, record.victim)

    def on_reply(self, packet) -> None:
        if is_checkin(packet):
            self.report.checkins_seen += 1
            self._count("checkins")
            self._emit("checkin", src=dotted(packet.src))

    # -- terminal --------------------------------------------------------- #

    def _finalize(self) -> None:
        """A campaign has no abort path; it runs its window to the end."""
        self.conclude("completed")
        self.report.captures = tuple(self._captures)
