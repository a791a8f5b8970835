"""Seeded randomness.

Every stochastic choice in the simulation goes through a
:class:`DeterministicRNG` so a world built from a given seed is fully
reproducible, and independent sub-streams can be derived by name without
the draws of one component perturbing another.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRNG:
    """A named, seeded random stream with convenience draws.

    Parameters
    ----------
    seed:
        Root seed of the stream.
    name:
        Optional stream name; different names with the same seed yield
        independent streams.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(f"{seed}:{name}")

    def child(self, name: str) -> "DeterministicRNG":
        """Derive an independent sub-stream identified by ``name``."""
        return DeterministicRNG(self.seed, f"{self.name}/{name}")

    # -- primitive draws -------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Pick one element of a non-empty sequence."""
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list[T]) -> list[T]:
        """Return a shuffled copy of ``seq`` (the input is not modified)."""
        copy = list(seq)
        self._random.shuffle(copy)
        return copy

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given relative weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    # -- distributions used by the workload generator --------------------
    def lognormal(self, mean: float, sigma: float) -> float:
        """Draw from a log-normal distribution (heavy-tailed prices/volumes)."""
        return self._random.lognormvariate(mean, sigma)

    def exponential(self, mean: float) -> float:
        """Draw from an exponential distribution with the given mean."""
        return self._random.expovariate(1.0 / mean) if mean > 0 else 0.0

    def pareto(self, alpha: float, scale: float = 1.0) -> float:
        """Draw from a Pareto distribution (used for whale-like volumes)."""
        return scale * self._random.paretovariate(alpha)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._random.random() < probability

    def address(self, *parts: object) -> str:
        """Derive a fresh deterministic address from this stream."""
        from repro.utils.hashing import address_from_parts

        return address_from_parts(self.seed, self.name, self._random.random(), *parts)
