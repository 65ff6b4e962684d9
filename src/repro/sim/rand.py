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
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, TypeVar

__all__ = ["SeedSequence", "RandomStream", "stable_hash"]

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

    def __init__(self, seed: int, name: str = "") -> None:
        self.name = name
        self.seed = seed

    @cached_property
    def _rng(self) -> random.Random:
        return random.Random(self.seed)

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

    # -- choice / shuffling -------------------------------------------- #

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements."""
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._rng.shuffle(seq)

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

    def pareto(self, shape: float, scale: float = 1.0) -> float:
        """Pareto-distributed value with minimum ``scale``.

        Heavy-tailed; used for per-source scan-session sizes, matching the
        observation that a few telescope sources send most packets.
        """
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape!r}")
        return scale * (1.0 + self._rng.paretovariate(shape) - 1.0)

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

    def normal(self, mu: float, sigma: float) -> float:
        """Gaussian value."""
        return self._rng.gauss(mu, sigma)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success."""
        if not (0 < p <= 1):
            raise ValueError(f"p must be in (0, 1], got {p!r}")
        if p == 1.0:
            return 1
        return int(math.ceil(math.log(1.0 - self._rng.random()) / math.log(1.0 - p)))

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Zipf-distributed index in ``[0, n)``; low indexes are popular.

        Used to make some destination ports / services much hotter than
        others, as in real background radiation.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        # Inverse-CDF on the harmonic weights via rejection-free search.
        # n is small (ports/services) so a linear scan is fine and exact.
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        target = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target < acc:
                return i
        return n - 1

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

    # -- misc ----------------------------------------------------------- #

    def fork(self, name: str) -> "RandomStream":
        """Derive a sub-stream; deterministic in (this stream's seed, name)."""
        return RandomStream(_derive_seed(self.seed, name), name=f"{self.name}/{name}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStream(name={self.name!r}, seed={self.seed})"
