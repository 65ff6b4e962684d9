"""Tests for worm targeting strategies (uniform vs local preference)."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_UDP, udp_packet
from repro.services.guest import GuestHost, ScanBehavior
from repro.sim.rand import RandomStream
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.vm import VirtualMachine

ATTACKER = IPAddress.parse("203.0.113.1")
VICTIM = IPAddress.parse("10.16.0.5")


def scanning_guest(snapshot, sim, registry, behavior):
    vm = VirtualMachine(snapshot, GuestAddressSpace(snapshot.image), VICTIM, 0.0, vm_id=1)
    vm.start(now=0.0)
    emitted = []
    guest = GuestHost(
        vm=vm, personality=registry.get("windows-default"),
        catalog=registry.catalog, sim=sim, rng=RandomStream(11),
        transmit=lambda v, p: emitted.append(p),
        worm_behaviors={behavior.exploit_tag: behavior},
    )
    guest.handle_packet(
        udp_packet(ATTACKER, VICTIM, 1, 1434, payload="exploit:slammer"), sim.now
    )
    return guest, emitted


class TestTargetDistribution:
    def test_local_preference_matches_code_red_ii_mix(self, snapshot, sim, registry):
        behavior = ScanBehavior(
            "slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=500.0,
            targeting="local",
        )
        __, emitted = scanning_guest(snapshot, sim, registry, behavior)
        sim.run(until=20.0)
        assert len(emitted) > 2000
        same16 = sum(1 for p in emitted if (p.dst >> 16) == (VICTIM >> 16))
        same8 = sum(1 for p in emitted if (p.dst >> 24) == (VICTIM >> 24))
        n = len(emitted)
        # P(same /16) = 0.375 + tiny uniform contribution.
        assert same16 / n == pytest.approx(0.375, abs=0.04)
        # P(same /8) = 0.375 + 0.5 + tiny uniform contribution.
        assert same8 / n == pytest.approx(0.875, abs=0.04)

    def test_uniform_rarely_hits_own_slash8(self, snapshot, sim, registry):
        behavior = ScanBehavior(
            "slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=500.0,
        )
        __, emitted = scanning_guest(snapshot, sim, registry, behavior)
        sim.run(until=10.0)
        same8 = sum(1 for p in emitted if (p.dst >> 24) == (VICTIM >> 24))
        assert same8 / len(emitted) < 0.02  # true rate 1/256

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanBehavior("w", PROTO_UDP, 1, "exploit:w", 1.0, targeting="psychic")
        with pytest.raises(ValueError):
            ScanBehavior("w", PROTO_UDP, 1, "exploit:w", 1.0, targeting="local",
                         local_same_slash8=0.8, local_same_slash16=0.5)


class TestLocalWormsSelfCaptureInTheFarm:
    def run_farm(self, targeting):
        """Open policy (no reflection): only the worm's own locality can
        bring its scans back into the farm's dark /16."""
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/16",), num_hosts=2, max_vms_per_host=64,
            containment="open", clone_jitter=0.0, seed=19,
            idle_timeout_seconds=600.0,
        ))
        farm.register_worm(ScanBehavior(
            "slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=60.0,
            targeting=targeting,
        ))
        farm.inject(udp_packet(ATTACKER, IPAddress.parse("10.16.7.7"), 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=15.0)
        return farm.infection_count()

    def test_local_worm_reinfects_farm_uniform_does_not(self):
        local = self.run_farm("local")
        uniform = self.run_farm("uniform")
        # The local worm's 37.5% same-/16 scans land back in dark space
        # and snowball; the uniform worm's chance per scan is 2^-16.
        assert local > 10 * max(uniform, 1)
        assert uniform <= 2
