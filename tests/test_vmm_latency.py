"""Unit tests for the clone/boot/copy cost model."""

import pytest

from repro.sim.rand import RandomStream
from repro.vmm.latency import (
    BOOT_FROM_SCRATCH_SECONDS,
    DEFAULT_STAGE_COSTS_MS,
    CloneCostModel,
)


def _total(stages) -> float:
    """Seconds a pipeline of ``stages`` takes, as the clone engine sums it."""
    return sum(s.seconds for s in stages)


class TestDefaults:
    def test_default_stages_sum_to_headline_521ms(self):
        assert sum(DEFAULT_STAGE_COSTS_MS.values()) == pytest.approx(521.0)

    def test_toolstack_dominates(self):
        # The paper's breakdown: management overhead is the largest stage.
        assert DEFAULT_STAGE_COSTS_MS["toolstack"] == max(DEFAULT_STAGE_COSTS_MS.values())

    def test_memory_setup_is_cheap(self):
        # Delta virtualization makes the memory stage a small fraction.
        assert DEFAULT_STAGE_COSTS_MS["memory_cow_setup"] < 0.1 * sum(
            DEFAULT_STAGE_COSTS_MS.values()
        )


class TestJitterFree:
    @pytest.fixture
    def model(self):
        return CloneCostModel(jitter=0.0)

    def test_flash_clone_total(self, model):
        assert _total(model.flash_clone_stages()) == pytest.approx(0.521)
        assert model.mean_flash_clone_seconds() == pytest.approx(0.521)

    def test_stage_order_is_pipeline_order(self, model):
        stages = [s.stage for s in model.flash_clone_stages()]
        assert stages == list(DEFAULT_STAGE_COSTS_MS)

    def test_boot_is_two_orders_slower_than_clone(self, model):
        boot = _total(model.boot_stages())
        assert boot > 50 * _total(model.flash_clone_stages())
        assert boot == pytest.approx(
            BOOT_FROM_SCRATCH_SECONDS
            + (DEFAULT_STAGE_COSTS_MS["domain_create"]
               + DEFAULT_STAGE_COSTS_MS["device_setup"]) / 1000.0
        )

    def test_full_copy_replaces_cow_stage(self, model):
        image_bytes = 128 << 20
        stages = {s.stage: s.seconds for s in model.full_copy_stages(image_bytes)}
        assert "memory_cow_setup" not in stages
        assert stages["memory_full_copy"] == pytest.approx(image_bytes / 2.0e9)

    def test_full_copy_slower_than_flash(self, model):
        assert _total(model.full_copy_stages(128 << 20)) > _total(model.flash_clone_stages())

    def test_destroy_is_cheap(self, model):
        assert model.destroy_seconds() < 0.1


class TestJitter:
    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            CloneCostModel(jitter=0.1)

    def test_jitter_produces_spread_around_mean(self):
        model = CloneCostModel(jitter=0.05, rng=RandomStream(3))
        totals = [_total(model.flash_clone_stages()) for __ in range(500)]
        mean = sum(totals) / len(totals)
        assert mean == pytest.approx(0.521, rel=0.05)
        assert min(totals) < mean < max(totals)
        assert all(t > 0 for t in totals)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            CloneCostModel(jitter=-0.1, rng=RandomStream(1))

    def test_negative_stage_cost_rejected(self):
        with pytest.raises(ValueError):
            CloneCostModel(stage_costs_ms={"x": -1.0}, jitter=0.0)


class TestCustomStages:
    def test_custom_breakdown_respected(self):
        model = CloneCostModel(stage_costs_ms={"a": 100.0, "b": 200.0}, jitter=0.0)
        assert model.mean_flash_clone_seconds() == pytest.approx(0.3)
        assert [s.stage for s in model.flash_clone_stages()] == ["a", "b"]
