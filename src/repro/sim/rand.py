"""Named, reproducible random streams.

Every stochastic component in the reproduction (telescope arrivals, worm
target selection, guest think times, ...) draws from its own
:class:`RandomStream`, derived from a root :class:`SeedSequence` by name.
This gives two properties the experiments rely on:

* **Reproducibility** — the same root seed always produces the same run.
* **Isolation** — adding draws to one component (say, a richer guest model)
  does not perturb the sequence seen by any other component, so ablations
  stay comparable.

Streams are derived by hashing ``(root_seed, name)`` with SHA-256, so the
mapping is stable across Python versions and processes (unlike ``hash()``).

A stream that never draws costs a name and a seed: the farm hands every
guest its own stream, nine guests in ten are never infected and never
draw, and a seeded Mersenne Twister is 2.5 KiB and ~6 us to seed. The
generator is therefore built at the first draw, which moves no draw
sequence — the seed is fixed when the stream is derived.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Optional, Sequence, TypeVar

__all__ = ["SeedSequence", "RandomStream", "randbelow", "stable_hash"]

T = TypeVar("T")


def stable_hash(label: str, nbytes: int = 8) -> int:
    """The first ``nbytes`` of SHA-256(``label``) as a big-endian
    integer: a hash that is the same in every process and Python version
    (unlike ``hash()``). Every value the simulation derives from a name —
    stream seeds, per-address personalities, worm body positions — goes
    through here."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:nbytes], "big")


def _derive_seed(root: int, name: str) -> int:
    return stable_hash(f"{root}:{name}")


def randbelow(rng: random.Random, n: int) -> int:
    """The draw ``rng.randrange(n)`` makes, without its argument checks
    and three calls: ``n.bit_length()`` random bits, drawn again until
    below ``n`` (CPython's ``Random._randbelow``). So ``randint(a, b)``
    is ``a + randbelow(rng, b - a + 1)`` and ``choice(seq)`` is
    ``seq[randbelow(rng, len(seq))]``, draw for draw. The trace
    generators' per-destination loops inline the same loop, and their
    exponential gaps as ``expovariate``'s ``-log(1.0 - random()) / rate``;
    ``tests/test_sim_rand.py`` checks both against the stdlib."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class SeedSequence:
    """Derives independent named random streams from a single root seed.

    >>> seeds = SeedSequence(42)
    >>> a = seeds.stream("telescope")
    >>> b = seeds.stream("worm")
    >>> a.uniform(0, 1) != b.uniform(0, 1)
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)

    def stream(self, name: str) -> "RandomStream":
        """Return the stream uniquely identified by ``name``."""
        return RandomStream(_derive_seed(self.root_seed, name), name=name)

    def seed_of(self, name: str) -> int:
        """The seed of the stream named ``name``: a ``random.Random``
        seeded with it draws what ``stream(name)`` draws, for a loop that
        draws through the generator's bound methods."""
        return _derive_seed(self.root_seed, name)

    def spawn(self, name: str) -> "SeedSequence":
        """Return a child sequence, for components that themselves own
        multiple streams (e.g. one stream per simulated source host)."""
        return SeedSequence(_derive_seed(self.root_seed, f"seq:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeedSequence(root_seed={self.root_seed})"


class RandomStream:
    """A seeded random stream with the distributions the workloads need.

    Thin wrapper over :class:`random.Random` plus a few distributions
    (bounded Pareto, zipf) that the standard library lacks and that
    Internet-traffic modelling needs.

    No :class:`random.Random` exists until the first draw. A pickled
    stream carries its generator's state, if it has one by then, and
    continues its sequence where it was.
    """

    __slots__ = ("name", "seed", "_random")

    def __init__(self, seed: int, name: str = "") -> None:
        self.name = name
        self.seed = seed
        self._random: Optional[random.Random] = None

    @property
    def _rng(self) -> random.Random:
        """The generator, seeded at the first draw."""
        rng = self._random
        if rng is None:
            rng = self._random = random.Random(self.seed)
        return rng

    # -- uniform / integers -------------------------------------------- #

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self._rng.random() < p

    # -- choice --------------------------------------------------------- #

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(seq)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with probability proportional to its weight."""
        return self._rng.choices(items, weights=weights, k=1)[0]

    # -- arrival processes --------------------------------------------- #

    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process of ``rate``
        events/second. ``rate`` must be positive."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        return self._rng.expovariate(rate)

    def bounded_pareto(self, shape: float, low: float, high: float) -> float:
        """Pareto truncated to ``[low, high]`` by inverse-CDF sampling."""
        if not (0 < low < high):
            raise ValueError(f"need 0 < low < high, got {low!r}, {high!r}")
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape!r}")
        u = self._rng.random()
        ha = high**-shape
        la = low**-shape
        return (ha + u * (la - ha)) ** (-1.0 / shape)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal value (used for guest service/think times)."""
        return self._rng.lognormvariate(mu, sigma)

    def poisson(self, mean: float) -> int:
        """Poisson-distributed count (Knuth for small mean, normal approx
        for large)."""
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean!r}")
        if mean == 0:
            return 0
        if mean > 500:
            return max(0, int(round(self._rng.gauss(mean, math.sqrt(mean)))))
        limit = math.exp(-mean)
        k = 0
        p = 1.0
        while True:
            p *= self._rng.random()
            if p <= limit:
                return k
            k += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStream(name={self.name!r}, seed={self.seed})"
