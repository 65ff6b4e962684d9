"""Unit tests for metrics primitives."""

import pytest

from repro.sim.metrics import Counter, Gauge, Histogram, MetricRegistry, TimeSeries


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment(self):
        c = Counter("c")
        c.increment()
        c.increment(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)


class TestGauge:
    def test_set_and_peak(self):
        g = Gauge("g")
        g.set(3.0, time=1.0)
        g.set(7.0, time=2.0)
        g.set(2.0, time=3.0)
        assert g.value == 2.0
        assert g.peak == 7.0

    def test_adjust(self):
        g = Gauge("g")
        g.adjust(5.0, time=1.0)
        g.adjust(-2.0, time=2.0)
        assert g.value == 3.0

    def test_time_average_is_time_weighted(self):
        g = Gauge("g")
        g.set(10.0, time=0.0)   # level 10 for 1s
        g.set(0.0, time=1.0)    # level 0 for 9s
        assert g.time_average(now=10.0) == pytest.approx(1.0)

    def test_time_average_with_no_elapsed_time(self):
        g = Gauge("g", initial=4.0)
        assert g.time_average() == 4.0

    def test_rejects_time_going_backwards(self):
        g = Gauge("g")
        g.set(1.0, time=5.0)
        with pytest.raises(ValueError):
            g.set(2.0, time=4.0)

    def test_time_average_clamps_stale_now(self):
        # Regression: a `now` older than the last update used to integrate
        # *negative* elapsed time into the weighted area, dragging the
        # average below every value the gauge ever held.
        g = Gauge("g")
        g.set(10.0, time=0.0)
        g.set(0.0, time=8.0)
        stale = g.time_average(now=3.0)  # predates the t=8 update
        assert stale == pytest.approx(10.0)  # clamped: area up to t=8 only
        assert stale == g.time_average(now=8.0)
        # A legitimately-later `now` still extends the final interval.
        assert g.time_average(now=16.0) == pytest.approx(5.0)


class TestHistogram:
    def test_empty_histogram_is_safe(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_basic_stats(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.mean == 2.5
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.total == 10.0

    def test_percentile_interpolates(self):
        h = Histogram("h")
        for v in [0.0, 10.0]:
            h.observe(v)
        assert h.percentile(50) == 5.0
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == 10.0

    def test_percentile_unsorted_inserts(self):
        h = Histogram("h")
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.observe(v)
        assert h.median == 3.0

    def test_percentile_single_value(self):
        h = Histogram("h")
        h.observe(42.0)
        assert h.percentile(99) == 42.0

    def test_percentile_rejects_out_of_range(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_stddev(self):
        h = Histogram("h")
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            h.observe(v)
        assert h.stddev() == pytest.approx(2.0)

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(1.0)
        assert set(h.summary()) == {"count", "mean", "min", "p50", "p90", "p99", "max"}

    def test_running_moments_survive_sort_interleaving(self):
        # Regression: total/mean/stddev used to re-scan every sample per
        # call (quadratic reports); they are now maintained incrementally
        # and must stay exact when observes interleave with percentile
        # calls (which sort the sample list in place).
        h = Histogram("h")
        values = [5.0, 1.0, 9.0]
        for v in values:
            h.observe(v)
        assert h.median == 5.0  # forces the sort
        values += [2.0, 7.0]
        h.observe(2.0)
        h.observe(7.0)
        n = len(values)
        mean = sum(values) / n
        assert h.total == pytest.approx(sum(values))
        assert h.mean == pytest.approx(mean)
        variance = sum((v - mean) ** 2 for v in values) / n
        assert h.stddev() == pytest.approx(variance ** 0.5)

    def test_stddev_never_goes_negative_under_rounding(self):
        # sumsq/n - mean^2 can dip fractionally below zero for constant
        # samples; the sqrt must see it clamped (no math domain error),
        # and cancellation residue must stay negligible.
        h = Histogram("h")
        for _ in range(1000):
            h.observe(0.1)
        assert h.stddev() == pytest.approx(0.0, abs=1e-6)


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries("s")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_rejects_backwards_time(self):
        ts = TimeSeries("s")
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 2.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries("s")
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert ts.value_at(1.0) == 2.0

    def test_value_at_step_semantics(self):
        ts = TimeSeries("s")
        ts.record(1.0, 10.0)
        ts.record(3.0, 20.0)
        assert ts.value_at(0.5) == 0.0
        assert ts.value_at(1.0) == 10.0
        assert ts.value_at(2.9) == 10.0
        assert ts.value_at(3.0) == 20.0
        assert ts.value_at(99.0) == 20.0

    def test_resample_uniform_grid(self):
        ts = TimeSeries("s")
        ts.record(0.0, 1.0)
        ts.record(2.5, 5.0)
        out = ts.resample(1.0, end=4.0)
        assert list(out) == [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 5.0), (4.0, 5.0)]

    def test_resample_empty(self):
        assert len(TimeSeries("s").resample(1.0)) == 0

    def test_resample_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TimeSeries("s").resample(0.0)

    def test_max_value(self):
        ts = TimeSeries("s")
        assert ts.max_value() == 0.0
        ts.record(0.0, 3.0)
        ts.record(1.0, 1.0)
        assert ts.max_value() == 3.0

    def test_to_csv(self, tmp_path):
        ts = TimeSeries("s")
        ts.record(0.0, 1.5)
        ts.record(2.0, 3.0)
        path = tmp_path / "series.csv"
        assert ts.to_csv(path, value_label="vms") == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "time_seconds,vms"
        assert lines[1] == "0.0,1.5"
        assert len(lines) == 3

    def test_to_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert TimeSeries("s").to_csv(path) == 0
        assert path.read_text().splitlines() == ["time_seconds,value"]


class TestMetricRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.series("s") is reg.series("s")

    def test_counters_snapshot(self):
        reg = MetricRegistry()
        reg.counter("x").increment(3)
        reg.counter("y").increment(1)
        assert reg.counters() == {"x": 3, "y": 1}

    def test_report_contains_all_metric_names(self):
        reg = MetricRegistry()
        reg.counter("pkts").increment()
        reg.gauge("vms").set(5, time=1.0)
        reg.histogram("lat").observe(0.5)
        reg.series("ts").record(0.0, 1.0)
        report = reg.report()
        for name in ("pkts", "vms", "lat", "ts"):
            assert name in report


class TestResampleGridDrift:
    """The resample grid is derived (start + i * interval), never
    accumulated (t += interval): repeated float addition drifts in the
    last ulp, shifting point timestamps and the point count."""

    def test_grid_points_are_exactly_derived(self):
        ts = TimeSeries("s")
        ts.record(0.0, 1.0)
        ts.record(100.0, 2.0)
        out = ts.resample(0.1)
        assert list(out.times) == [i * 0.1 for i in range(len(out.times))]

    def test_point_count_matches_ideal_grid(self):
        # Accumulating 0.1 a thousand times undershoots 100.0 by ~1e-12,
        # which squeezes a 1002nd point in before the stop; the derived
        # grid lands exactly on 100.0 and stops there.
        ts = TimeSeries("s")
        ts.record(0.0, 1.0)
        ts.record(100.0, 2.0)
        out = ts.resample(0.1)
        assert len(out) == 1001
        assert out.times[-1] == 100.0

    def test_nonzero_start_keeps_derived_grid(self):
        ts = TimeSeries("s")
        ts.record(7.3, 1.0)
        ts.record(7.9, 4.0)
        out = ts.resample(0.2)
        assert list(out.times) == [7.3 + i * 0.2 for i in range(len(out.times))]
