"""Unit and integration tests for outbreak detection."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.detection.monitor import InfectionRateMonitor
from repro.detection.sifting import ContentSifter, SifterConfig
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_UDP, tcp_packet, udp_packet
from repro.services.guest import InfectionRecord, ScanBehavior

ATTACKER = IPAddress.parse("203.0.113.1")


def exploit_packet(src_index: int, dst_index: int, payload="exploit:slammer"):
    return udp_packet(
        IPAddress(ATTACKER + src_index),
        IPAddress.parse(f"10.16.0.{dst_index}"),
        1000 + src_index, 1434, payload=payload,
    )


class TestContentSifter:
    @pytest.fixture
    def sifter(self):
        return ContentSifter(SifterConfig(
            prevalence_threshold=10, source_threshold=3, destination_threshold=5,
        ))

    def test_alert_requires_all_three_thresholds(self, sifter):
        # Prevalent but single-source single-destination: no alert.
        for __ in range(50):
            assert sifter.observe(exploit_packet(0, 1)) is None
        assert sifter.alerts == []

    def test_alert_fires_on_prevalent_dispersed_payload(self, sifter):
        alert = None
        for i in range(20):
            alert = sifter.observe(exploit_packet(i % 4, i)) or alert
        assert alert is not None
        assert alert.payload == "exploit:slammer"
        assert alert.prevalence >= 10
        assert alert.distinct_sources >= 3
        assert alert.distinct_destinations >= 5
        assert alert.is_known_exploit

    def test_one_alert_per_payload(self, sifter):
        for i in range(100):
            sifter.observe(exploit_packet(i % 8, i % 64))
        assert len(sifter.alerts) == 1

    def test_distinct_payloads_alert_separately(self, sifter):
        for i in range(40):
            sifter.observe(exploit_packet(i % 4, i, payload="exploit:slammer"))
            sifter.observe(exploit_packet(i % 4, i, payload="exploit:sasser"))
        assert {a.payload for a in sifter.alerts} == {
            "exploit:slammer", "exploit:sasser",
        }

    def test_empty_and_response_payloads_ignored(self, sifter):
        for i in range(50):
            sifter.observe(tcp_packet(ATTACKER, IPAddress.parse("10.16.0.1"), i, 80))
            sifter.observe(exploit_packet(i % 5, i, payload="banner:IIS"))
            sifter.observe(exploit_packet(i % 5, i, payload="dns:answer:1.2.3.4"))
        assert sifter.tracked_payloads() == 0

    def test_benign_but_rare_payloads_do_not_alert(self, sifter):
        for i in range(9):  # below prevalence threshold
            sifter.observe(exploit_packet(i, i, payload="hello-world"))
        assert sifter.alerts == []

    def test_state_bound_evicts_lru_payloads(self):
        sifter = ContentSifter(SifterConfig(max_tracked_payloads=10))
        for i in range(50):
            sifter.observe(exploit_packet(0, 1, payload=f"p{i}"))
        assert sifter.tracked_payloads() == 10
        assert sifter.payloads_evicted == 40
        assert sifter.prevalence_of("p0") == 0  # evicted
        assert sifter.prevalence_of("p49") == 1

    def test_address_sets_bounded(self):
        sifter = ContentSifter(SifterConfig(
            prevalence_threshold=1000, max_addresses_per_payload=5,
        ))
        for i in range(100):
            sifter.observe(exploit_packet(i, i))
        assert sifter.prevalence_of("exploit:slammer") == 100

    def test_clock_stamps_alert_time(self):
        times = [7.5]
        sifter = ContentSifter(
            SifterConfig(prevalence_threshold=1, source_threshold=1,
                         destination_threshold=1),
            clock=lambda: times[0],
        )
        alert = sifter.observe(exploit_packet(0, 1))
        assert alert.time == 7.5

    def test_config_validation(self):
        for kwargs in (
            {"prevalence_threshold": 0},
            {"source_threshold": 0},
            {"max_tracked_payloads": 0},
            {"max_addresses_per_payload": 0},
        ):
            with pytest.raises(ValueError):
                SifterConfig(**kwargs)


class TestInfectionRateMonitor:
    def make_record(self, time, worm="slammer"):
        return InfectionRecord(
            worm_name=worm, vulnerability=worm, source=ATTACKER,
            victim=IPAddress.parse("10.16.0.1"), time=time, vm_id=1,
        )

    def test_alert_on_rate_threshold(self):
        monitor = InfectionRateMonitor(threshold=3, window_seconds=10.0)
        assert monitor.record(self.make_record(0.0)) is None
        assert monitor.record(self.make_record(1.0)) is None
        alert = monitor.record(self.make_record(2.0))
        assert alert is not None
        assert alert.infections_in_window == 3

    def test_window_slides(self):
        monitor = InfectionRateMonitor(threshold=3, window_seconds=5.0)
        monitor.record(self.make_record(0.0))
        monitor.record(self.make_record(1.0))
        # 20s later the window is empty again; this is infection #1 of 3.
        assert monitor.record(self.make_record(20.0)) is None
        assert monitor.current_rate("slammer") == 1

    def test_one_alert_per_worm(self):
        monitor = InfectionRateMonitor(threshold=2, window_seconds=100.0)
        for t in range(10):
            monitor.record(self.make_record(float(t)))
        assert len(monitor.alerts) == 1

    def test_worms_tracked_independently(self):
        monitor = InfectionRateMonitor(threshold=2, window_seconds=10.0)
        monitor.record(self.make_record(0.0, worm="a"))
        monitor.record(self.make_record(0.5, worm="b"))
        assert monitor.alerts == []
        monitor.record(self.make_record(1.0, worm="a"))
        assert monitor.alert_for("a") is not None
        assert monitor.alert_for("b") is None

    def test_replay_sorts_by_time(self):
        monitor = InfectionRateMonitor(threshold=2, window_seconds=1.0)
        records = [self.make_record(5.0), self.make_record(0.0),
                   self.make_record(5.5)]
        alerts = monitor.replay(records)
        assert len(alerts) == 1
        assert alerts[0].time == 5.5

    def test_validation(self):
        with pytest.raises(ValueError):
            InfectionRateMonitor(threshold=0)
        with pytest.raises(ValueError):
            InfectionRateMonitor(window_seconds=0.0)


class TestDetectionOnLiveFarm:
    def test_sifter_and_monitor_race_on_outbreak(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1,
            containment="reflect", clone_jitter=0.0, seed=8,
        ))
        sifter = ContentSifter(
            SifterConfig(prevalence_threshold=15, source_threshold=2,
                         destination_threshold=8),
            clock=lambda: farm.sim.now,
        )
        farm.attach_packet_tap(sifter.observe)
        monitor = InfectionRateMonitor(threshold=3, window_seconds=10.0)
        farm.add_infection_listener(monitor.record)
        farm.register_worm(
            ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer",
                         scan_rate=30.0)
        )
        farm.inject(udp_packet(ATTACKER, IPAddress.parse("10.16.0.5"), 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=8.0)

        sift_alert = sifter.alert_for("exploit:slammer")
        rate_alert = monitor.alert_for("slammer")
        assert sift_alert is not None
        assert rate_alert is not None
        # Both detectors fire within seconds of the index case.
        assert sift_alert.time < 5.0
        assert rate_alert.time < 5.0

    def test_no_alerts_on_benign_background(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1, clone_jitter=0.0,
        ))
        sifter = ContentSifter(clock=lambda: farm.sim.now)
        farm.attach_packet_tap(sifter.observe)
        for i in range(60):
            farm.inject(tcp_packet(
                IPAddress(ATTACKER + i),
                IPAddress.parse(f"10.16.0.{i % 64}"), 1000 + i, 445,
            ))
        farm.run(until=5.0)
        assert sifter.alerts == []
