"""Unit tests for seeded random streams."""

import pytest

from repro.sim.rand import RandomStream, SeedSequence


class TestSeedSequence:
    def test_same_name_same_stream(self):
        seeds = SeedSequence(1)
        a = [seeds.stream("x").random() for __ in range(5)]
        b = [seeds.stream("x").random() for __ in range(5)]
        assert a == b

    def test_different_names_differ(self):
        seeds = SeedSequence(1)
        assert seeds.stream("x").seed != seeds.stream("y").seed

    def test_different_roots_differ(self):
        assert SeedSequence(1).stream("x").seed != SeedSequence(2).stream("x").seed

    def test_spawn_is_deterministic(self):
        a = SeedSequence(9).spawn("child").stream("s").seed
        b = SeedSequence(9).spawn("child").stream("s").seed
        assert a == b

    def test_spawn_differs_from_parent_stream(self):
        seeds = SeedSequence(9)
        assert seeds.spawn("n").stream("s").seed != seeds.stream("s").seed

    def test_seed_stable_across_process_restarts(self):
        # SHA-256 derivation, not hash(): the value is a portable constant.
        assert SeedSequence(42).stream("telescope").seed == (
            SeedSequence(42).stream("telescope").seed
        )

    def test_fork_stream(self):
        stream = SeedSequence(3).stream("parent")
        fork_a = stream.fork("a")
        fork_b = stream.fork("b")
        assert fork_a.seed != fork_b.seed
        assert stream.fork("a").seed == fork_a.seed


class TestDistributions:
    @pytest.fixture
    def rng(self):
        return RandomStream(12345)

    def test_uniform_bounds(self, rng):
        for __ in range(1000):
            value = rng.uniform(2.0, 5.0)
            assert 2.0 <= value < 5.0

    def test_randint_inclusive(self, rng):
        values = {rng.randint(1, 3) for __ in range(500)}
        assert values == {1, 2, 3}

    def test_bernoulli_extremes(self, rng):
        assert not any(rng.bernoulli(0.0) for __ in range(100))
        assert all(rng.bernoulli(1.0) for __ in range(100))

    def test_exponential_mean(self, rng):
        rate = 4.0
        samples = [rng.exponential(rate) for __ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(1.0 / rate, rel=0.05)

    def test_exponential_rejects_nonpositive_rate(self, rng):
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_bounded_pareto_bounds(self, rng):
        for __ in range(2000):
            value = rng.bounded_pareto(1.2, 1.0, 100.0)
            assert 1.0 <= value <= 100.0

    def test_bounded_pareto_is_heavy_tailed(self, rng):
        samples = sorted(rng.bounded_pareto(1.1, 1.0, 10000.0) for __ in range(20000))
        median = samples[len(samples) // 2]
        p99 = samples[int(0.99 * len(samples))]
        assert median < 2.0
        assert p99 > 30.0

    def test_bounded_pareto_validates_bounds(self, rng):
        with pytest.raises(ValueError):
            rng.bounded_pareto(1.2, 10.0, 5.0)
        with pytest.raises(ValueError):
            rng.bounded_pareto(-1.0, 1.0, 5.0)

    def test_poisson_mean(self, rng):
        samples = [rng.poisson(7.0) for __ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(7.0, rel=0.05)

    def test_poisson_zero_mean(self, rng):
        assert rng.poisson(0.0) == 0

    def test_poisson_large_mean_uses_normal_approx(self, rng):
        samples = [rng.poisson(10000.0) for __ in range(200)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(10000.0, rel=0.02)
        assert all(s >= 0 for s in samples)

    def test_poisson_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            rng.poisson(-1.0)

    def test_choice_and_sample(self, rng):
        items = list(range(10))
        assert rng.choice(items) in items
        sampled = rng.sample(items, 4)
        assert len(sampled) == len(set(sampled)) == 4

    def test_weighted_choice_respects_weights(self, rng):
        hits = sum(
            1 for __ in range(10000) if rng.weighted_choice(["a", "b"], [9.0, 1.0]) == "a"
        )
        assert 8500 < hits < 9500

    def test_shuffle_preserves_elements(self, rng):
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_lognormal_positive(self, rng):
        assert all(rng.lognormal(0.0, 1.0) > 0 for __ in range(1000))


class TestReproducibility:
    def test_same_seed_same_sequence(self):
        a = RandomStream(99)
        b = RandomStream(99)
        assert [a.random() for __ in range(20)] == [b.random() for __ in range(20)]

    def test_streams_are_independent(self):
        seeds = SeedSequence(5)
        a = seeds.stream("a")
        b = seeds.stream("b")
        before = b.random()
        # Consuming a lot of `a` must not perturb `b`'s future draws.
        for __ in range(1000):
            a.random()
        b2 = SeedSequence(5).stream("b")
        b2.random()
        assert b.random() == b2.random()
