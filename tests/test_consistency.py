"""Cross-methodology consistency checks.

The reproduction computes several results two independent ways — a live
farm simulation and an offline trace analysis — and the paper's
methodology depends on those agreeing. These tests pin that agreement.
"""

import pytest

from repro.analysis.concurrency import concurrency_for_timeout
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import tcp_packet
from repro.vmm.latency import DEFAULT_STAGE_COSTS_MS
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm


class TestLiveFarmMatchesOfflineAnalysis:
    def test_peak_concurrency_agrees(self):
        """Replaying a trace against an unconstrained live farm must peak
        within a small margin of the exact offline sweep (the live farm
        adds ~0.5 s clone latency per VM lifetime, the only divergence)."""
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=4,
            max_vms_per_host=512, idle_timeout_seconds=30.0,
            sweep_interval_seconds=0.5, clone_jitter=0.0, seed=9,
        )
        workload = TelescopeWorkload(
            config.parsed_prefixes(),
            TelescopeConfig(seed=77, sources_per_second_per_slash16=256.0,
                            exploit_source_fraction=0.0),
        )
        records = workload.generate(60.0)
        offline = concurrency_for_timeout(records, timeout=30.0)

        farm = Honeyfarm(config)
        replay_into_farm(farm, records)
        farm.run(until=120.0)
        live_peak = farm.metrics.series("farm.live_vms_series").max_value()

        assert farm.metrics.counters().get("gateway.no_capacity_drop", 0) == 0
        assert live_peak == pytest.approx(offline.peak_vms, rel=0.15)

    def test_instantiation_counts_agree(self):
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/25",), num_hosts=2,
            idle_timeout_seconds=20.0, sweep_interval_seconds=0.5,
            clone_jitter=0.0, seed=9,
        )
        workload = TelescopeWorkload(
            config.parsed_prefixes(),
            TelescopeConfig(seed=31, sources_per_second_per_slash16=128.0,
                            exploit_source_fraction=0.0),
        )
        records = workload.generate(60.0)
        offline = concurrency_for_timeout(records, timeout=20.0)

        farm = Honeyfarm(config)
        replay_into_farm(farm, records)
        farm.run(until=120.0)
        live_spawned = farm.metrics.counters()["farm.vms_spawned"]

        # The live farm's reclamation sweep runs every 0.5 s, so lifetimes
        # stretch slightly past the exact timeout; counts track closely.
        assert live_spawned == pytest.approx(offline.vm_instantiations, rel=0.1)


class TestTwoFarmsOneProcess:
    """Farm state must be process-global-free: two identically configured
    farms built side by side in one process behave identically.

    This pins the farm-local ``PhysicalHost`` ids — with a process-global
    host counter the second farm's hosts would be named ``host-4``
    onwards, diverging placement hashes, metrics, and fault-plan targets —
    and the farm-local VM ids the recorder's events carry.
    """

    @staticmethod
    def _config():
        return HoneyfarmConfig(
            prefixes=("10.16.0.0/25",), num_hosts=2,
            idle_timeout_seconds=20.0, sweep_interval_seconds=0.5,
            clone_jitter=0.0, seed=9,
        )

    def test_side_by_side_farms_are_identical(self):
        config = self._config()
        workload = TelescopeWorkload(
            config.parsed_prefixes(),
            TelescopeConfig(seed=31, sources_per_second_per_slash16=64.0),
        )
        records = workload.generate(30.0)

        # Construct both farms *before* running either: any shared
        # process-global id sequence would skew the second one.
        farm_a = Honeyfarm(self._config())
        farm_b = Honeyfarm(self._config())

        assert [h.name for h in farm_a.hosts] == [h.name for h in farm_b.hosts]

        for farm in (farm_a, farm_b):
            replay_into_farm(farm, records)
            farm.run(until=60.0)

        assert farm_a.metrics.counters() == farm_b.metrics.counters()
        assert farm_a.sim.events_processed == farm_b.sim.events_processed
        series_a = farm_a.metrics.series("farm.live_vms_series")
        series_b = farm_b.metrics.series("farm.live_vms_series")
        assert series_a.times == series_b.times
        assert series_a.values == series_b.values

    def test_host_and_vm_numbering_restarts_per_farm(self):
        farm_a = Honeyfarm(self._config())
        farm_b = Honeyfarm(self._config())
        assert [h.name for h in farm_b.hosts] == ["host-0", "host-1"]
        assert [h.name for h in farm_a.hosts] == ["host-0", "host-1"]
        target = IPAddress.parse("10.16.0.5")
        for farm in (farm_a, farm_b):
            farm.inject(tcp_packet(IPAddress.parse("203.0.113.2"), target, 1, 445))
            farm.run(until=2.0)
        assert farm_a.gateway.vm_at(target).vm_id == 1
        assert farm_b.gateway.vm_at(target).vm_id == 1


class TestLatencyModelInternalConsistency:
    def test_engine_reproduces_cost_model_exactly(self):
        """Jitter-free clone latency through the whole farm equals the
        stage table's sum to the microsecond."""
        from repro.net.addr import IPAddress
        from repro.net.packet import tcp_packet

        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/26",), num_hosts=1, clone_jitter=0.0,
        ))
        farm.inject(tcp_packet(IPAddress.parse("203.0.113.2"),
                               IPAddress.parse("10.16.0.5"), 1, 445))
        farm.run(until=2.0)
        ready = farm.metrics.histogram("farm.address_ready_seconds")
        expected = sum(DEFAULT_STAGE_COSTS_MS.values()) / 1000.0
        assert ready.mean == pytest.approx(expected, abs=1e-9)
