"""Tests for the expanded malware roster: Nimda and Witty."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.forensics import ForensicTriage
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_UDP, TcpFlags, tcp_packet, udp_packet
from repro.workloads.worms import KNOWN_WORMS

ATTACKER = IPAddress.parse("203.0.113.8")


class TestNimda:
    def test_nimda_spec_is_local_scanning(self):
        nimda = KNOWN_WORMS["nimda"]
        assert nimda.targeting == "local"
        behavior = nimda.behavior(None)
        assert behavior.targeting == "local"

    def test_nimda_infects_default_windows(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="drop-all", clone_jitter=0.0, seed=3,
        ))
        target = IPAddress.parse("10.16.0.9")
        farm.inject(tcp_packet(ATTACKER, target, 1, 80))
        farm.inject(tcp_packet(ATTACKER, target, 1, 80,
                               flags=TcpFlags.PSH | TcpFlags.ACK,
                               payload="exploit:nimda"))
        farm.run(until=2.0)
        assert farm.infection_count() == 1
        assert farm.infections[0].worm_name == "nimda"


class TestWitty:
    def make_iss_farm(self):
        return Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            default_personality="windows-iss",
            containment="drop-all", clone_jitter=0.0, seed=3,
        ))

    def test_witty_only_compromises_iss_hosts(self):
        target = IPAddress.parse("10.16.0.9")
        exploit = udp_packet(ATTACKER, target, 1, 4000, payload="exploit:witty")

        iss_farm = self.make_iss_farm()
        iss_farm.inject(exploit)
        iss_farm.run(until=2.0)
        assert iss_farm.infection_count() == 1

        plain_farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="drop-all", clone_jitter=0.0, seed=3,
        ))
        plain_farm.inject(exploit)
        plain_farm.run(until=2.0)
        assert plain_farm.infection_count() == 0  # no BlackICE, no flaw

    def test_witty_corrupts_random_disk_blocks(self):
        farm = self.make_iss_farm()
        target = IPAddress.parse("10.16.0.9")
        farm.inject(udp_packet(ATTACKER, target, 1, 4000, payload="exploit:witty"))
        farm.run(until=2.0)
        vm = farm.gateway.vm_at(target)
        personality = vm.guest.personality
        # Orderly install region + destructive random writes.
        assert vm.disk.private_blocks > (
            personality.infection_disk_blocks + 64
        )

    def test_witty_destruction_differs_across_victims(self):
        """The corruption is random per victim; the body region is not —
        memory forensics still clusters Witty captures perfectly."""
        farm = self.make_iss_farm()
        for i in (9, 10, 11):
            farm.inject(udp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i}"),
                                   1, 4000, payload="exploit:witty"))
        farm.run(until=2.0)
        vms = [farm.gateway.vm_at(IPAddress.parse(f"10.16.0.{i}"))
               for i in (9, 10, 11)]
        disk_sets = [frozenset(vm.disk.dirty_block_numbers()) for vm in vms]
        assert disk_sets[0] != disk_sets[1] != disk_sets[2]

        triage = ForensicTriage(farm)
        triage.collect()
        report = triage.report()
        assert len(report.signatures) == 1
        assert report.signatures[0].dominant_worm == "witty"
        assert report.signatures[0].purity == 1.0
