"""Tests for per-address personality mixing."""

import pytest

from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress, Prefix
from repro.net.packet import tcp_packet

ATTACKER = IPAddress.parse("203.0.113.3")
PREFIX = Prefix.parse("10.16.0.0/24")

MIX = {"windows-default": 0.7, "linux-server": 0.3}


class TestConfig:
    def test_mix_is_stable_per_address(self):
        config = HoneyfarmConfig(prefixes=("10.16.0.0/24",), personality_mix=MIX)
        addr = IPAddress.parse("10.16.0.42")
        picks = {config.personality_for_address(PREFIX, addr) for __ in range(10)}
        assert len(picks) == 1

    def test_mix_roughly_matches_weights(self):
        config = HoneyfarmConfig(prefixes=("10.16.0.0/16",), personality_mix=MIX)
        prefix = Prefix.parse("10.16.0.0/16")
        windows = sum(
            1
            for i in range(2000)
            if config.personality_for_address(prefix, prefix.address_at(i))
            == "windows-default"
        )
        assert 0.6 < windows / 2000 < 0.8

    def test_mix_overrides_prefix_mapping(self):
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/24",),
            personality_by_prefix={"10.16.0.0/24": "linux-server"},
            personality_mix={"windows-default": 1.0},
        )
        assert config.personality_for_address(
            PREFIX, IPAddress.parse("10.16.0.1")
        ) == "windows-default"

    def test_without_mix_prefix_mapping_applies(self):
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/24",),
            personality_by_prefix={"10.16.0.0/24": "linux-server"},
        )
        assert config.personality_for_address(
            PREFIX, IPAddress.parse("10.16.0.1")
        ) == "linux-server"

    def test_all_personalities_includes_mix(self):
        config = HoneyfarmConfig(prefixes=("10.16.0.0/24",), personality_mix=MIX)
        assert set(config.all_personalities()) == {"windows-default", "linux-server"}

    def test_validation(self):
        with pytest.raises(ValueError):
            HoneyfarmConfig(personality_mix={})
        with pytest.raises(ValueError):
            HoneyfarmConfig(personality_mix={"windows-default": 0.0})


class TestMixedFarm:
    def test_farm_presents_heterogeneous_population(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            personality_mix=MIX, clone_jitter=0.0, seed=2,
            idle_timeout_seconds=600.0,
        ))
        for i in range(60):
            farm.inject(tcp_packet(ATTACKER, IPAddress.parse(f"10.16.0.{i + 1}"),
                                   1000 + i, 80))
        farm.run(until=3.0)
        gateway = farm.gateway
        personalities = {gateway.vm_at(ip).personality for ip in gateway.addresses}
        assert personalities == {"windows-default", "linux-server"}

    def test_repeat_visit_sees_same_personality(self):
        config = HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=1,
            personality_mix=MIX, clone_jitter=0.0, seed=2,
            idle_timeout_seconds=30.0,
        )
        target = IPAddress.parse("10.16.0.77")

        def visit():
            farm = Honeyfarm(config)
            farm.inject(tcp_packet(ATTACKER, target, 1, 80))
            farm.run(until=1.0)
            return farm.gateway.vm_at(target).personality

        assert visit() == visit()

    def test_snapshots_installed_for_every_mixed_personality(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/24",), num_hosts=2, personality_mix=MIX,
        ))
        for host in farm.hosts:
            assert set(host.snapshots) == {"windows-default", "linux-server"}
