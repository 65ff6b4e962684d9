"""Unit tests for worm specs and the Internet outbreak model."""

import dataclasses
import math

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress, dotted
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.sim.rand import RandomStream
from repro.workloads.trace import TraceRecord
from repro.workloads.worms import (
    KNOWN_WORMS,
    InternetOutbreak,
    OutbreakConfig,
    WormSpec,
)


class TestWormSpec:
    def test_known_worms_roster(self):
        assert set(KNOWN_WORMS) == {
            "slammer", "codered", "blaster", "sasser", "nimda", "witty",
        }

    def test_known_worm_parameters_sane(self):
        slammer = KNOWN_WORMS["slammer"]
        assert slammer.protocol == PROTO_UDP and slammer.port == 1434
        assert slammer.scan_rate == 4000.0
        blaster = KNOWN_WORMS["blaster"]
        assert blaster.protocol == PROTO_TCP and blaster.dns_lookup_first

    def test_behavior_conversion(self):
        dns = IPAddress.parse("198.18.53.53")
        behavior = KNOWN_WORMS["blaster"].behavior(dns)
        assert behavior.exploit_tag == "exploit:blaster"
        assert behavior.dns_lookup_first and behavior.dns_server == dns

    def test_behavior_without_dns_server_disables_lookup(self):
        behavior = KNOWN_WORMS["blaster"].behavior(None)
        assert not behavior.dns_lookup_first

    def test_with_scan_rate(self):
        scaled = KNOWN_WORMS["slammer"].with_scan_rate(10.0)
        assert scaled.scan_rate == 10.0
        assert scaled.name == "slammer"
        assert KNOWN_WORMS["slammer"].scan_rate == 4000.0  # original untouched

    def test_rejects_nonpositive_scan_rate(self):
        with pytest.raises(ValueError):
            WormSpec("w", PROTO_TCP, 80, "exploit:w", scan_rate=0.0)


class TestOutbreakConfig:
    def test_defaults_valid(self):
        OutbreakConfig()

    def test_rejects_bad_populations(self):
        with pytest.raises(ValueError):
            OutbreakConfig(vulnerable_population=0)
        with pytest.raises(ValueError):
            OutbreakConfig(initially_infected=0)
        with pytest.raises(ValueError):
            OutbreakConfig(vulnerable_population=10, initially_infected=11)

    def test_rejects_bad_fraction_and_tick(self):
        with pytest.raises(ValueError):
            OutbreakConfig(telescope_fraction=0.0)
        with pytest.raises(ValueError):
            OutbreakConfig(tick_seconds=0.0)


class TestEpidemicMathematics:
    @pytest.fixture
    def outbreak(self, small_farm):
        worm = KNOWN_WORMS["codered"].with_scan_rate(50.0)
        return InternetOutbreak(
            small_farm, worm,
            OutbreakConfig(vulnerable_population=100_000, initially_infected=100,
                           telescope_fraction=1e-3),
        )

    def test_prevalence_starts_at_i0(self, outbreak):
        assert outbreak.prevalence(0.0) == pytest.approx(100.0)

    def test_prevalence_saturates_at_n(self, outbreak):
        assert outbreak.prevalence(1e9) == pytest.approx(100_000.0)

    def test_prevalence_is_monotonic(self, outbreak):
        values = [outbreak.prevalence(t) for t in range(0, 10000, 100)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_logistic_growth_rate(self, outbreak):
        # Early exponential phase: I(t) ~ I0 * exp(beta t).
        beta = outbreak.beta
        early = outbreak.prevalence(10.0)
        assert early == pytest.approx(100.0 * math.exp(beta * 10.0), rel=0.05)

    def test_time_to_prevalence_inverts_prevalence(self, outbreak):
        t_half = outbreak.time_to_prevalence(0.5)
        assert outbreak.prevalence(t_half) == pytest.approx(50_000.0, rel=1e-6)

    def test_time_to_prevalence_validates(self, outbreak):
        with pytest.raises(ValueError):
            outbreak.time_to_prevalence(0.0)
        with pytest.raises(ValueError):
            outbreak.time_to_prevalence(1.0)

    def test_arrival_rate_scales_with_prevalence(self, outbreak):
        assert outbreak.arrival_rate(0.0) == pytest.approx(
            100.0 * 50.0 * 1e-3
        )

    def test_default_telescope_fraction_from_inventory(self, small_farm):
        outbreak = InternetOutbreak(small_farm, KNOWN_WORMS["codered"])
        assert outbreak.telescope_fraction() == pytest.approx(256 / 2**32)

    def test_faster_worm_grows_faster(self, small_farm):
        slow = InternetOutbreak(small_farm, KNOWN_WORMS["codered"].with_scan_rate(10.0))
        fast = InternetOutbreak(small_farm, KNOWN_WORMS["codered"].with_scan_rate(100.0))
        assert fast.beta > slow.beta


class TestOutbreakDriving:
    def test_outbreak_delivers_scans_and_infects(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            containment="drop-all", clone_jitter=0.0, seed=3,
        ))
        worm = KNOWN_WORMS["codered"].with_scan_rate(30.0)
        outbreak = InternetOutbreak(
            farm, worm,
            OutbreakConfig(vulnerable_population=50_000, initially_infected=500,
                           telescope_fraction=2e-3, in_farm_scan_rate=5.0, seed=9),
        )
        outbreak.start()
        farm.run(until=30.0)
        assert outbreak.scans_delivered > 0
        assert farm.infection_count() > 0
        assert all(r.worm_name == "codered" for r in farm.infections)

    def test_outbreak_registers_worm_behavior(self, small_farm):
        outbreak = InternetOutbreak(small_farm, KNOWN_WORMS["codered"])
        outbreak.start()
        assert "exploit:codered" in small_farm.worm_behaviors

    def test_cannot_start_twice(self, small_farm):
        outbreak = InternetOutbreak(small_farm, KNOWN_WORMS["codered"])
        outbreak.start()
        with pytest.raises(ValueError):
            outbreak.start()

    def test_prevalence_series_recorded(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            containment="drop-all", clone_jitter=0.0,
        ))
        outbreak = InternetOutbreak(
            farm, KNOWN_WORMS["codered"].with_scan_rate(30.0),
            OutbreakConfig(telescope_fraction=1e-3),
        )
        outbreak.start()
        farm.run(until=30.0)
        series = outbreak.prevalence_series
        assert len(series) >= 29
        assert series.values[-1] >= series.values[0]

    @pytest.mark.parametrize(
        "worm",
        [
            KNOWN_WORMS["codered"],
            KNOWN_WORMS["slammer"],
            dataclasses.replace(KNOWN_WORMS["sasser"], exploit_tag=""),
        ],
        ids=["tcp-exploit", "udp", "tcp-bare"],
    )
    def test_scan_packets_are_the_rows_they_replaced(self, small_farm, worm):
        """A scan draws its destination, its source, then its source
        port, and carries the flags a trace row of the same fields
        infers (data segment, datagram, bare SYN)."""
        outbreak = InternetOutbreak(small_farm, worm)
        draws = RandomStream(outbreak.config.seed, name=f"outbreak-{worm.name}")
        inventory = small_farm.inventory
        for __ in range(20):
            dst = inventory.address_at_flat_index(
                draws.randint(0, inventory.total_addresses - 1)
            )
            src = IPAddress(draws.randint(0x01000000, 0xDFFFFFFF))
            row = TraceRecord(
                0.0, str(src), dotted(dst), worm.protocol,
                1024 + draws.randint(0, 60000), worm.port, worm.exploit_tag,
                worm.payload_size,
            )
            packet = outbreak._scan_packet()
            assert packet == row.to_packet()
