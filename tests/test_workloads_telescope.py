"""Unit tests for the background-radiation generator."""

import pytest

from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.workloads.telescope import TelescopeConfig, TelescopeWorkload
from repro.workloads.trace import replay_into_farm

SLASH16 = [Prefix.parse("10.16.0.0/16")]
SLASH24 = [Prefix.parse("10.16.0.0/24")]


class TestConfigValidation:
    def test_defaults_valid(self):
        TelescopeConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sources_per_second_per_slash16", 0.0),
            ("probes_min", 0),
            ("sequential_sweep_fraction", 1.5),
            ("exploit_source_fraction", -0.1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            TelescopeConfig(**{field: value})

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError):
            TelescopeConfig(probes_min=10, probes_max=5)


class TestGeneration:
    @pytest.fixture
    def workload(self):
        return TelescopeWorkload(SLASH16, TelescopeConfig(seed=7))

    def test_records_sorted_by_time(self, workload):
        records = workload.generate(30.0)
        times = [r.time for r in records]
        assert times == sorted(times)

    def test_records_within_duration(self, workload):
        records = workload.generate(30.0)
        assert all(0.0 <= r.time < 30.0 for r in records)

    def test_destinations_inside_dark_space(self, workload):
        inventory = AddressSpaceInventory(SLASH16)
        for r in workload.generate(10.0):
            assert inventory.covers(IPAddress.parse(r.dst))

    def test_sources_outside_dark_space(self, workload):
        inventory = AddressSpaceInventory(SLASH16)
        for r in workload.generate(10.0):
            assert not inventory.covers(IPAddress.parse(r.src))

    def test_rate_close_to_analytic_estimate(self, workload):
        duration = 120.0
        records = workload.generate(duration)
        measured = len(records) / duration
        expected = workload.expected_packets_per_second()
        assert measured == pytest.approx(expected, rel=0.45)

    def test_deterministic_given_seed(self):
        a = TelescopeWorkload(SLASH16, TelescopeConfig(seed=3)).generate(20.0)
        b = TelescopeWorkload(SLASH16, TelescopeConfig(seed=3)).generate(20.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = TelescopeWorkload(SLASH16, TelescopeConfig(seed=3)).generate(20.0)
        b = TelescopeWorkload(SLASH16, TelescopeConfig(seed=4)).generate(20.0)
        assert a != b

    def test_max_records_cap(self, workload):
        records = workload.generate(120.0, max_records=50)
        assert len(records) == 50

    def test_hot_ports_dominate(self, workload):
        records = workload.generate(120.0)
        hot = {445, 135, 139, 80, 1434, 22, 3389, 1025, 4899, 137}
        hot_count = sum(1 for r in records if r.dst_port in hot)
        assert hot_count / len(records) > 0.6

    def test_some_sources_carry_exploits(self, workload):
        records = workload.generate(120.0)
        exploit_tags = {r.payload for r in records if r.payload}
        assert exploit_tags  # default exploit fraction is 0.35
        assert all(tag.startswith("exploit:") for tag in exploit_tags)

    def test_exploit_fraction_zero_means_benign(self):
        config = TelescopeConfig(seed=7, exploit_source_fraction=0.0)
        records = TelescopeWorkload(SLASH16, config).generate(60.0)
        assert all(not r.payload for r in records)

    def test_sequential_sweeps_visit_adjacent_addresses(self):
        config = TelescopeConfig(
            seed=11, sequential_sweep_fraction=1.0,
            probes_min=20, probes_max=21, probes_pareto_shape=5.0,
            # Sources/s scale with telescope size; a /24 needs the per-/16
            # rate boosted 256x to see sessions within seconds.
            sources_per_second_per_slash16=512.0,
        )
        records = TelescopeWorkload(SLASH24, config).generate(5.0)
        by_source = {}
        for r in records:
            by_source.setdefault(r.src, []).append(r)
        session = max(by_source.values(), key=len)
        session.sort(key=lambda r: r.time)
        # Retransmission bursts repeat a destination; the sweep order is
        # visible in the sequence of *first* visits.
        first_visits = []
        seen = set()
        for r in session:
            if r.dst not in seen:
                seen.add(r.dst)
                first_visits.append(IPAddress.parse(r.dst).value)
        deltas = {(b - a) % 256 for a, b in zip(first_visits, first_visits[1:])}
        assert deltas == {1}  # strictly sequential modulo the /24

    def test_rejects_nonpositive_duration(self, workload):
        with pytest.raises(ValueError):
            workload.generate(0.0)

    def test_requires_prefixes(self):
        with pytest.raises(ValueError):
            TelescopeWorkload([])


class TestBackscatter:
    def test_backscatter_records_are_synack_or_rst(self):
        from repro.net.packet import TcpFlags

        config = TelescopeConfig(seed=9, backscatter_fraction=1.0,
                                 sources_per_second_per_slash16=64.0)
        records = TelescopeWorkload(SLASH16, config).generate(30.0)
        assert records
        for r in records:
            assert r.protocol == PROTO_TCP
            packet = r.to_packet()
            assert packet.flags.is_synack or packet.flags & TcpFlags.RST
            assert not r.payload  # backscatter never carries exploits
            assert r.src_port in (80, 443, 53, 6667, 25)

    def test_backscatter_disabled(self):
        config = TelescopeConfig(seed=9, backscatter_fraction=0.0)
        records = TelescopeWorkload(SLASH16, config).generate(60.0)
        synacks = [r for r in records if r.tcp_flags and r.to_packet().flags.is_synack]
        assert synacks == []

    def test_backscatter_is_harmless_to_the_farm(self, small_farm):
        """Backscatter creates VMs (demand is real) but never elicits
        replies nor infections — unsolicited segments are dropped."""
        from repro.net.packet import TcpFlags
        from repro.net.addr import IPAddress as IP
        from repro.net.packet import Packet, PROTO_TCP as TCP

        backscatter = Packet(
            src=IP.parse("198.51.100.7"), dst=IP.parse("10.16.0.9"),
            protocol=TCP, src_port=80, dst_port=51000,
            flags=TcpFlags.SYN | TcpFlags.ACK,
        )
        small_farm.inject(backscatter)
        small_farm.run(until=2.0)
        counters = small_farm.metrics.counters()
        assert small_farm.live_vms == 1  # a VM was still instantiated
        assert counters.get("gateway.reply_external_out", 0) == 0
        assert small_farm.infection_count() == 0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            TelescopeConfig(backscatter_fraction=1.5)


class TestScaling:
    def test_rate_scales_with_telescope_size(self):
        small = TelescopeWorkload(SLASH24, TelescopeConfig(seed=1))
        large = TelescopeWorkload(SLASH16, TelescopeConfig(seed=1))
        assert large.source_rate == pytest.approx(small.source_rate * 256)

    def test_slash16_equivalents(self):
        w = TelescopeWorkload(
            [Prefix.parse("10.16.0.0/16"), Prefix.parse("10.17.0.0/17")]
        )
        assert w.slash16_equivalents == pytest.approx(1.5)


class TestAttach:
    def test_attach_schedules_onto_farm(self, small_farm):
        workload = TelescopeWorkload(
            small_farm.config.parsed_prefixes(),
            TelescopeConfig(seed=5, sources_per_second_per_slash16=512.0),
        )
        scheduled = replay_into_farm(small_farm, workload.generate(60.0))
        assert scheduled > 0
        small_farm.run(until=60.0)
        assert small_farm.metrics.counters()["gateway.packets_in"] >= scheduled
        assert small_farm.metrics.counters()["farm.vms_spawned"] > 0
