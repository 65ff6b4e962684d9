"""Unit tests for seeded random streams."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rand import RandomStream, SeedSequence, randbelow


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

    def test_weighted_choice_respects_weights(self, rng):
        hits = sum(
            1 for __ in range(10000) if rng.weighted_choice(["a", "b"], [9.0, 1.0]) == "a"
        )
        assert 8500 < hits < 9500

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


class TestInlinedDrawsMatchTheStdlib:
    """The trace generators draw through a bare ``random.Random`` with
    CPython's own formulas (``randbelow``, inlined per destination, and
    ``expovariate``'s ``-log(1.0 - random()) / rate``) instead of the
    stdlib methods ``RandomStream`` calls. ``tests/golden/trace_digests.txt``
    would catch a CPython release that changes those formulas, but only
    as a digest mismatch; these name the draw that moved."""

    #: Every width a generator draws below: a one-address prefix, the
    #: backscatter victim ports, the source and reply ports, a /16, a /16
    #: plus one address, and the external-source range.
    WIDTHS = (1, 5, 60_001, 65_536, 65_537, 0xDF000000)
    #: Gap rates: a telescope source's probes, a worm wave, a source rate.
    RATES = (12.0, 4.0, 1234.5)
    MOVED = (
        "CPython's Random.{method} no longer draws what the trace generators"
        " inline (repro.sim.rand.randbelow; the gaps in workloads/telescope.py"
        " and testing/scenario.py): make them follow it, then regenerate"
        " tests/golden/trace_digests.txt"
    )

    @staticmethod
    def _inlined_randbelow(getrandbits, n: int) -> int:
        # The per-destination loops' shape: the bit count is computed once
        # per session, the draw repeated while it is out of range.
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_randint_choice_and_expovariate_draw_for_draw(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for width in self.WIDTHS:
            low = 0x01000000 if width == 0xDF000000 else 1024
            for __ in range(50):
                assert low + randbelow(ours, width) == stdlib.randint(
                    low, low + width - 1
                ), self.MOVED.format(method="randint")
                assert self._inlined_randbelow(ours.getrandbits, width) == (
                    stdlib.randrange(width)
                ), self.MOVED.format(method="randrange")
            seq = range(width)
            assert seq[randbelow(ours, len(seq))] == stdlib.choice(seq), (
                self.MOVED.format(method="choice")
            )
        for rate in self.RATES:
            for __ in range(50):
                assert -math.log(1.0 - ours.random()) / rate == stdlib.expovariate(rate), (
                    self.MOVED.format(method="expovariate")
                )
        assert ours.getstate() == stdlib.getstate(), "the two generators drew apart"

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_a_reseeded_generator_is_a_new_one(self, seed):
        """The generators reuse one ``random.Random`` per trace and
        reseed it per source."""
        reused = random.Random(7)
        reused.random()
        reused.seed(seed)
        assert reused.getstate() == random.Random(seed).getstate()

    def test_seed_of_is_the_streams_seed(self):
        seeds = SeedSequence(424742).spawn("telescope")
        stream = seeds.stream("session-3")
        generator = random.Random(seeds.seed_of("session-3"))
        assert [generator.random() for __ in range(5)] == [
            stream.random() for __ in range(5)
        ]
