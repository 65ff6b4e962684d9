#!/usr/bin/env python3
"""Scenario: capturing a bot and its command-and-control rendezvous.

The paper motivates honeyfarms with exactly this workflow: a bot breaks
in, and because the honeypot is a *real executing system*, the farm
observes the whole kill chain — the exploit, the DNS lookup for the
rendezvous domain, the connect to the C&C server, the periodic check-ins
— while the containment policy decides how much of it touches the real
Internet. Afterwards, forensics diffs the captured VMs against the
pristine snapshot and distils the bot's memory signature.

This example runs the same Blaster-style bot under three policies and
prints what each one *learned* versus what each one *risked*:

* ``open``       learns everything, and lets the bot reach its C&C;
* ``allow-dns``  captures the rendezvous domain, blocks the check-in;
* ``reflect``    additionally keeps the bot's scanning observable
                 (in-farm epidemic) with nothing escaping.

Run:  python examples/botnet_capture.py
"""

from repro.analysis.epidemics import summarize_containment
from repro.analysis.report import format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.forensics import ForensicTriage
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_TCP, TcpFlags, tcp_packet
from repro.services.guest import ScanBehavior

ATTACKER = IPAddress.parse("203.0.113.66")
TARGET = IPAddress.parse("10.16.0.20")
CNC_SERVER = IPAddress.parse("198.51.100.99")
RENDEZVOUS = "irc.botland.example"
DURATION = 30.0


def run_policy(policy: str):
    farm = Honeyfarm(HoneyfarmConfig(
        prefixes=("10.16.0.0/26",), num_hosts=1,
        containment=policy, idle_timeout_seconds=120.0,
        clone_jitter=0.0, seed=14,
    ))
    escaped_to_cnc = []
    farm.gateway.external_sink = (
        lambda p: escaped_to_cnc.append(p) if p.dst == CNC_SERVER else None
    )
    farm.register_worm(ScanBehavior(
        worm_name="blaster",
        protocol=PROTO_TCP,
        dst_port=135,
        exploit_tag="exploit:blaster",
        scan_rate=12.0,
        dns_lookup_first=True,
        dns_server=farm.dns_server.address,
        rendezvous_domain=RENDEZVOUS,
        cnc_server=CNC_SERVER,
        cnc_port=6667,
        beacon_interval=3.0,
    ))
    # The bot's two-packet incursion: connect, then exploit.
    farm.inject(tcp_packet(ATTACKER, TARGET, 4444, 135))
    farm.inject(tcp_packet(ATTACKER, TARGET, 4444, 135,
                           flags=TcpFlags.PSH | TcpFlags.ACK,
                           payload="exploit:blaster"))
    farm.run(until=DURATION)
    return farm, escaped_to_cnc


def main() -> None:
    rows = []
    reflect_farm = None
    for policy in ("open", "allow-dns", "reflect"):
        farm, escaped_to_cnc = run_policy(policy)
        summary = summarize_containment(farm)
        domains = set(farm.dns_server.rendezvous_domains())
        index_vm = farm.gateway.vm_at(TARGET)
        beacons = index_vm.guest.beacons_sent if index_vm and index_vm.guest else 0
        rows.append([
            policy,
            summary.infections_total,
            "yes" if RENDEZVOUS in domains else "no",
            beacons,
            len(escaped_to_cnc),
            summary.escaped_packets,
        ])
        if policy == "reflect":
            reflect_farm = farm

    print(format_table(
        ["policy", "captures", "rendezvous learned", "check-ins attempted",
         "check-ins reached C&C", "total escaped"],
        rows,
        title=f"Blaster-bot incursion, {DURATION:.0f}s per policy",
    ))

    # Forensics on the reflection farm: what did the bot change?
    assert reflect_farm is not None
    triage = ForensicTriage(reflect_farm)
    triage.collect()
    print()
    print(triage.report().render())
    print("\nIntelligence haul under reflection: the rendezvous domain, the"
          "\nC&C address and port, the beacon cadence, the full in-farm"
          "\nepidemic — and not one bot packet reached the Internet.")


if __name__ == "__main__":
    main()
