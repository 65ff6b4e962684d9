"""Honeypot-aware fingerprinting scanners.

A :class:`FingerprintScanner` models the "gotta catch 'em all" attacker:
before committing its exploit, it probes the target population for
simulation tells and aborts the moment the accumulated
:mod:`~repro.adversary.tells` score trips. Sophistication is a ladder of
tiers, each adding one detection capability:

====  =========================================================
tier  capability added
====  =========================================================
0     none — classic worm behaviour, exploit on sight
1     cross-address identity check (banner monoculture)
2     timing analysis (clone-latency band + cross-address
      first-reply correlation)
3     active containment-echo test (sacrificial bot implant
      whose C2 is the scanner's own listener)
====  =========================================================

The campaign is staged on the event clock: recon probes at ``start``,
banner grabs once clones have settled, verdict at the analyze step, then
either abort, the tier-3 echo test, or full exploitation. Every stage
reads only what came back through the gateway — the agent has no
privileged view of the farm.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.adversary import tells as _tells
from repro.adversary.base import AdversaryAgent, is_checkin
from repro.net.addr import dotted
from repro.net.packet import PROTO_UDP, TcpFlags, tcp_packet, udp_packet
from repro.workloads.worms import KNOWN_WORMS

__all__ = ["FingerprintScanner"]

#: TCP service every stock personality exposes with a distinguishing
#: banner — the natural identity-probe port.
PROBE_PORT = 80

#: Stage offsets (seconds after ``start``). Banner grabs wait out the
#: slowest clone pipeline in :data:`CLONE_LATENCY_BAND`; the analyze
#: step waits out the banner replies.
BANNER_DELAY = 3.0
ANALYZE_DELAY = 4.5

#: The echo implant beacons every second; silence for a full window is
#: the containment verdict.
ECHO_BEACON_INTERVAL = 1.0
ECHO_WINDOW = 3.0

#: Dwell charged for the exploitation stage itself (payload staging).
EXPLOIT_LINGER = 1.0

#: In-farm scan-rate ceiling for the sacrificial implant, mirroring the
#: conformance worlds' worm throttle.
IMPLANT_SCAN_RATE = 2.0

_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


class FingerprintScanner(AdversaryAgent):
    """Multistage fingerprinting attacker at a given sophistication tier."""

    kind = "fingerprint"

    def __init__(self, *args, worm: str = "slammer", **kwargs) -> None:
        tier = kwargs.pop("tier", 0)
        if not (0 <= tier <= 3):
            raise ValueError(f"fingerprint tier must be in [0, 3]: {tier!r}")
        if worm not in KNOWN_WORMS:
            raise ValueError(f"unknown worm {worm!r}")
        super().__init__(*args, tier=tier, **kwargs)
        self.tier = tier
        self.worm = worm
        self.score = _tells.TellScore()
        # Recon evidence, all keyed by probed address.
        self._probe_sent_at: Dict[str, float] = {}
        self._first_reply: Dict[str, float] = {}
        self._banners: Dict[str, Tuple[str, ...]] = {}
        self._echo_target = None
        # At most this many recon probes; the exploit stage covers every
        # target regardless.
        self._recon_targets = self.targets[: max(
            _tells.IDENTITY_MIN_ADDRESSES, min(len(self.targets), 6)
        )]

    # -- stages ----------------------------------------------------------- #

    def _schedule(self) -> None:
        if self.tier >= 1:
            sim = self.farm.sim
            sim.schedule_at(self.start + BANNER_DELAY, self._grab_banners)
            sim.schedule_at(self.start + ANALYZE_DELAY, self._analyze)

    def _begin(self) -> None:
        self._count("campaigns")
        if self.tier == 0:
            # No fingerprinting: straight to the exploit, worm-style.
            self._exploit(self.targets)
            return
        now = self.farm.sim.now
        for i, target in enumerate(self._recon_targets):
            self._probe_sent_at[dotted(target)] = now
            self.inject(tcp_packet(
                self.source, target, 40000 + i, PROBE_PORT,
                flags=TcpFlags.SYN,
            ))

    def _grab_banners(self) -> None:
        if self._terminal:
            return
        for i, target in enumerate(self._recon_targets):
            self.inject(tcp_packet(
                self.source, target, 40000 + i, PROBE_PORT,
                flags=_PSH_ACK, payload="fp:banner-probe",
            ))

    def _analyze(self) -> None:
        if self._terminal:
            return
        self.score.add(_tells.identity_tell(self._banners))
        if self.tier >= 2:
            self.score.add(
                _tells.clone_latency_tell(list(self._first_reply.values()))
            )
            self.score.add(_tells.timing_variance_tell(self._first_reply))
        self._record_score()
        if self.score.tripped():
            self._count("aborts")
            self.conclude("aborted", abort_stage="recon")
            return
        if self.tier >= 3:
            self._echo_test()
        else:
            self._exploit(self.targets)

    def _echo_test(self) -> None:
        """Implant one sacrificial bot whose C2 is this scanner."""
        self._echo_target = self._recon_targets[0]
        spec = KNOWN_WORMS[self.worm].with_scan_rate(IMPLANT_SCAN_RATE)
        implant = replace(
            spec.behavior(),
            cnc_server=self.source,
            beacon_interval=ECHO_BEACON_INTERVAL,
            targeting="local",
        )
        self.farm.register_worm(implant)
        self._emit("echo_implant", target=dotted(self._echo_target))
        self._send_exploit(self._echo_target, 0)
        self.farm.sim.schedule_at(
            self.farm.sim.now + ECHO_WINDOW, self._echo_evaluate
        )

    def _echo_evaluate(self) -> None:
        if self._terminal:
            return
        self.score.add(_tells.containment_echo_tell(self.report.checkins_seen))
        self._record_score()
        if self.score.tripped():
            self._count("aborts")
            self.conclude("aborted", abort_stage="echo")
            return
        remaining = tuple(t for t in self.targets if t != self._echo_target)
        self._exploit(remaining)

    def _exploit(self, targets) -> None:
        for i, target in enumerate(targets):
            self._send_exploit(target, i)
        self._count("exploits")
        self.farm.sim.schedule_at(
            self.farm.sim.now + EXPLOIT_LINGER, self._complete
        )

    def _complete(self) -> None:
        self.conclude("completed")

    # -- observation ------------------------------------------------------ #

    def on_reply(self, packet) -> None:
        addr = dotted(packet.src)
        sent = self._probe_sent_at.get(addr)
        if sent is not None and addr not in self._first_reply:
            self._first_reply[addr] = self.farm.sim.now - sent
        payload = packet.payload
        if payload.startswith("banner:"):
            seen = self._banners.get(addr, ())
            if payload not in seen:
                self._banners[addr] = seen + (payload,)
        elif is_checkin(packet):
            self.report.checkins_seen += 1
            self._emit("checkin", src=addr)

    # -- helpers ---------------------------------------------------------- #

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

    def _record_score(self) -> None:
        self.report.tell_total = self.score.total
        self.report.tells = self.score.as_tuples()
