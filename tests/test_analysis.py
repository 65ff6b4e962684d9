"""Unit tests for the analysis package: concurrency, memory, epidemics, report."""

import pytest

from repro.analysis.concurrency import concurrency_for_timeout, sweep_timeouts
from repro.analysis.epidemics import (
    generation_histogram,
    infection_curve,
    summarize_containment,
)
from repro.analysis.memory_stats import footprint_summary, vms_per_host_estimate
from repro.analysis.report import format_series, format_table
from repro.core.config import HoneyfarmConfig
from repro.core.honeyfarm import Honeyfarm
from repro.net.addr import IPAddress
from repro.net.packet import PROTO_TCP, PROTO_UDP, udp_packet
from repro.services.guest import InfectionRecord, ScanBehavior
from repro.sim.metrics import TimeSeries
from repro.vmm.memory import GuestAddressSpace, PAGE_SIZE
from repro.vmm.vm import VirtualMachine
from repro.workloads.trace import TraceRecord


def arrival(time, dst):
    return TraceRecord(time=time, src="203.0.113.9", dst=dst,
                       protocol=PROTO_TCP, src_port=1, dst_port=445)


class TestConcurrencyAnalysis:
    def test_single_address_counts_one_vm(self):
        records = [arrival(0.0, "10.16.0.1"), arrival(1.0, "10.16.0.1")]
        result = concurrency_for_timeout(records, timeout=10.0)
        assert result.peak_vms == 1
        assert result.vm_instantiations == 1

    def test_recycled_address_counts_two_instantiations(self):
        records = [arrival(0.0, "10.16.0.1"), arrival(100.0, "10.16.0.1")]
        result = concurrency_for_timeout(records, timeout=10.0)
        assert result.peak_vms == 1
        assert result.vm_instantiations == 2

    def test_overlapping_addresses_counted_concurrently(self):
        records = [arrival(0.0, "10.16.0.1"), arrival(1.0, "10.16.0.2"),
                   arrival(2.0, "10.16.0.3")]
        result = concurrency_for_timeout(records, timeout=10.0)
        assert result.peak_vms == 3

    def test_short_timeout_lowers_peak(self):
        records = [arrival(float(i), f"10.16.0.{i}") for i in range(10)]
        short = concurrency_for_timeout(records, timeout=0.5)
        long = concurrency_for_timeout(records, timeout=100.0)
        assert short.peak_vms == 1
        assert long.peak_vms == 10

    def test_mean_is_time_weighted(self):
        # One address alive [0, 10): busy period 0 + timeout 10.
        records = [arrival(0.0, "10.16.0.1")]
        result = concurrency_for_timeout(records, timeout=10.0)
        assert result.mean_vms == pytest.approx(1.0)

    def test_activity_extends_lifetime(self):
        records = [arrival(0.0, "10.16.0.1"), arrival(9.0, "10.16.0.1")]
        result = concurrency_for_timeout(records, timeout=10.0)
        # alive [0, 19): mean over 19s = 1.
        assert result.mean_vms == pytest.approx(1.0)

    def test_monotone_in_timeout(self):
        records = [arrival(i * 0.5, f"10.16.0.{i % 50}") for i in range(500)]
        results = sweep_timeouts(records, [1.0, 5.0, 25.0, 125.0])
        peaks = [r.peak_vms for r in results]
        means = [r.mean_vms for r in results]
        assert peaks == sorted(peaks)
        assert means == sorted(means)

    def test_series_sampling(self):
        records = [arrival(float(i), f"10.16.0.{i}") for i in range(5)]
        result = concurrency_for_timeout(records, timeout=100.0, sample_interval=1.0)
        assert len(result.series) >= 5
        assert result.series.values[-1] >= 1

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            concurrency_for_timeout([], timeout=0.0)

    def test_empty_trace(self):
        result = concurrency_for_timeout([], timeout=10.0)
        assert result.peak_vms == 0
        assert result.mean_vms == 0.0


class TestMemoryStats:
    def test_footprint_summary(self, snapshot):
        vms = []
        for i, pages in enumerate((10, 20, 30)):
            vm = VirtualMachine(
                snapshot, GuestAddressSpace(snapshot.image),
                IPAddress.parse(f"10.16.0.{i + 1}"), 0.0, vm_id=i + 1,
            )
            for page in range(pages):
                vm.address_space.write(page)
            vms.append(vm)
        summary = footprint_summary(vms)
        assert summary.vm_count == 3
        assert summary.mean == pytest.approx(20 * PAGE_SIZE)
        assert summary.median == 20 * PAGE_SIZE
        assert summary.max == 30 * PAGE_SIZE
        assert summary.total == 60 * PAGE_SIZE

    def test_empty_population(self):
        summary = footprint_summary([])
        assert summary.vm_count == 0
        assert summary.mean == 0.0

    def test_vms_per_host_delta_vs_full_copy(self):
        host_bytes = 2 << 30
        image = 128 << 20
        delta = vms_per_host_estimate(host_bytes, image, private_bytes_per_vm=2 << 20)
        full = vms_per_host_estimate(host_bytes, image, private_bytes_per_vm=2 << 20,
                                     full_copy=True)
        assert delta > 800          # thousands of 2 MiB clones
        assert full < 20            # ~14 full copies
        assert delta > 40 * full    # order-of-magnitude-plus gap

    def test_estimate_floors_at_one_page(self):
        est = vms_per_host_estimate(1 << 30, 128 << 20, private_bytes_per_vm=0.0)
        assert est > 0

    def test_estimate_zero_when_image_exceeds_host(self):
        assert vms_per_host_estimate(128 << 20, 256 << 20, 1 << 20) == 0

    def test_reserved_fraction_validated(self):
        with pytest.raises(ValueError):
            vms_per_host_estimate(1 << 30, 1 << 20, 1 << 20, reserved_fraction=1.0)


class TestEpidemicsAnalysis:
    def make_record(self, time, generation):
        return InfectionRecord(
            worm_name="w", vulnerability="w",
            source=IPAddress.parse("203.0.113.1"),
            victim=IPAddress.parse("10.16.0.1"),
            time=time, vm_id=1, generation=generation,
        )

    def test_infection_curve_cumulative(self):
        records = [self.make_record(t, 0) for t in (3.0, 1.0, 2.0)]
        curve = infection_curve(records)
        assert list(curve) == [(1.0, 1), (2.0, 2), (3.0, 3)]

    def test_generation_histogram(self):
        records = [self.make_record(0.0, g) for g in (0, 0, 1, 2, 1)]
        assert generation_histogram(records) == {0: 2, 1: 2, 2: 1}

    def test_summarize_containment_reflect(self):
        farm = Honeyfarm(HoneyfarmConfig(
            prefixes=("10.16.0.0/25",), num_hosts=1,
            containment="reflect", clone_jitter=0.0, seed=2,
        ))
        farm.register_worm(
            ScanBehavior("slammer", PROTO_UDP, 1434, "exploit:slammer", scan_rate=40.0)
        )
        farm.inject(udp_packet(IPAddress.parse("203.0.113.5"),
                               IPAddress.parse("10.16.0.9"), 1, 1434,
                               payload="exploit:slammer"))
        farm.run(until=8.0)
        summary = summarize_containment(farm)
        assert summary.policy == "reflect"
        assert summary.contained            # nothing escaped
        assert summary.fidelity_preserved   # onward infections observed
        assert summary.reflected_packets > 0
        assert summary.infections_total == summary.first_generation_infections + (
            summary.onward_infections
        )


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22.5]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "long-name" in lines[3]

    def test_format_table_with_title(self):
        table = format_table(["x"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"
        assert table.splitlines()[1] == "========"

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_rendering(self):
        table = format_table(["v"], [[1234567.0], [0.00012], [3.5]])
        assert "1,234,567" in table
        assert "0.00012" in table
        assert "3.50" in table

    def test_bool_rendering(self):
        table = format_table(["ok"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_format_series_decimates(self):
        ts = TimeSeries("vms")
        for i in range(1000):
            ts.record(float(i), float(i))
        rendered = format_series(ts, max_points=10)
        data_lines = [l for l in rendered.splitlines() if l and l[0].isdigit()]
        assert len(data_lines) <= 12
        assert "999" in rendered  # final sample always included

    def test_format_series_empty(self):
        assert "(empty)" in format_series(TimeSeries("x"))
