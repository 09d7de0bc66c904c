"""Distributions over the cube: sampling, pushforward, labelled samples, loss.

Probabilities are exact rationals wherever a distribution is enumerated;
sampling uses a seeded ``random.Random`` stream so every draw replays
bit-exactly. Draws and ``LabeledSample`` hold int masks, not points.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import ne
from typing import Iterator, Union

from .cube import ENUMERATION_CAP, CubePoint, DimensionMismatch, ReplicateMap
from .concepts import Concept


@dataclass(frozen=True)
class UniformCube:
    """Uniform distribution on {-1,+1}^n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")

    def draw(self, rng: random.Random) -> int:
        return rng.getrandbits(self.n)

    def support(self) -> Iterator[tuple[CubePoint, Fraction]]:
        if self.n > ENUMERATION_CAP:
            raise ValueError(f"dimension {self.n} exceeds enumeration cap {ENUMERATION_CAP}")
        p = Fraction(1, 1 << self.n)
        for mask in range(1 << self.n):
            yield CubePoint(self.n, mask), p


@dataclass(frozen=True)
class ProductDist:
    """Independent coordinates; ``plus_probs[j-1]`` is the chance of +1 at j."""

    n: int
    plus_probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.plus_probs) != self.n:
            raise ValueError(f"need {self.n} probabilities, got {len(self.plus_probs)}")
        probs = tuple(Fraction(p) for p in self.plus_probs)
        if any(p < 0 or p > 1 for p in probs):
            raise ValueError("coordinate probabilities must lie in [0,1]")
        object.__setattr__(self, "plus_probs", probs)

    def draw(self, rng: random.Random) -> int:
        mask = 0
        for p in self.plus_probs:
            mask = (mask << 1) | (rng.random() < p)
        return mask

    def support(self) -> Iterator[tuple[CubePoint, Fraction]]:
        if self.n > ENUMERATION_CAP:
            raise ValueError(f"dimension {self.n} exceeds enumeration cap {ENUMERATION_CAP}")
        for mask in range(1 << self.n):
            prob = Fraction(1)
            for j, p in enumerate(self.plus_probs):
                prob *= p if (mask >> (self.n - 1 - j)) & 1 else 1 - p
            if prob:
                yield CubePoint(self.n, mask), prob


@dataclass(frozen=True)
class FiniteSupport:
    """Explicit point masses; probabilities must sum to exactly 1."""

    n: int
    entries: tuple[tuple[CubePoint, Fraction], ...]
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        merged: dict[int, Fraction] = {}
        for point, prob in self.entries:
            if point.n != self.n:
                raise DimensionMismatch(f"support point has dimension {point.n}, expected {self.n}")
            p = Fraction(prob)
            if p < 0:
                raise ValueError(f"negative probability {p} at {point.to_string()}")
            merged[point.mask] = merged.get(point.mask, Fraction(0)) + p
        total = sum(merged.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")
        canonical = tuple(
            (CubePoint(self.n, mask), merged[mask]) for mask in sorted(merged) if merged[mask]
        )
        object.__setattr__(self, "entries", canonical)
        object.__setattr__(self, "_cum", tuple(accumulate(float(prob) for _, prob in canonical)))
        # The last mask twice: a product that rounds up to the total bisects past the end.
        object.__setattr__(self, "_masks", tuple(point.mask for point, _ in canonical + canonical[-1:]))

    def draw(self, rng: random.Random) -> int:
        return self._masks[bisect_right(self._cum, rng.random() * self._cum[-1])]

    def support(self) -> Iterator[tuple[CubePoint, Fraction]]:
        return iter(self.entries)


Distribution = Union[UniformCube, ProductDist, FiniteSupport]


def sample(dist: Distribution, m: int, seed: int) -> list[int]:
    """m i.i.d. draws as point masks, reproducible from the seed."""
    if m < 0:
        raise ValueError(f"sample count must be non-negative, got {m}")
    rng = random.Random(seed)
    return [dist.draw(rng) for _ in range(m)]


def pushforward(dist: Distribution, phi: ReplicateMap) -> FiniteSupport:
    """Image distribution assigning each source mass to its mapped point.

    The map must be injective on the support; colliding images would merge
    masses and are rejected.
    """
    if phi.source_n != dist.n:
        raise DimensionMismatch(f"map expects dimension {phi.source_n}, distribution has {dist.n}")
    entries: list[tuple[CubePoint, Fraction]] = []
    seen: dict[int, CubePoint] = {}
    for point, prob in dist.support():
        image = phi.apply(point)
        if image.mask in seen:
            raise ValueError(
                f"map is not injective on the support: {point.to_string()} and "
                f"{seen[image.mask].to_string()} share image {image.to_string()}"
            )
        seen[image.mask] = point
        entries.append((image, prob))
    return FiniteSupport(phi.target_n, tuple(entries))


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sample over {-1,+1}^n: ``masks[i]`` labelled ``labels[i]``."""

    n: int
    masks: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        if len(self.masks) != len(self.labels):
            raise ValueError(f"{len(self.masks)} masks but {len(self.labels)} labels")
        if self.masks and not (0 <= min(self.masks) and max(self.masks) < 1 << self.n):
            raise ValueError(f"sample masks must lie in [0, 2^{self.n})")
        if not set(self.labels) <= {0, 1}:
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[tuple[CubePoint, int]]:
        return ((CubePoint(self.n, m), y) for m, y in zip(self.masks, self.labels))


def _check_loss_dims(dist: Distribution, h_star: Concept, h_hat: Concept) -> None:
    if h_star.n != dist.n or h_hat.n != dist.n:
        raise DimensionMismatch(
            f"dimensions disagree: distribution {dist.n}, concepts {h_star.n}/{h_hat.n}"
        )


def exact_loss(dist: Distribution, h_star: Concept, h_hat: Concept) -> Fraction:
    """Exact disagreement mass between two concepts under the distribution.

    Requires an enumerable distribution; above ``ENUMERATION_CAP`` use ``mc_loss``.
    """
    _check_loss_dims(dist, h_star, h_hat)
    if isinstance(dist, (UniformCube, ProductDist)) and dist.n > ENUMERATION_CAP:
        raise ValueError(
            f"dimension {dist.n} exceeds enumeration cap {ENUMERATION_CAP}; use mc_loss for an estimate"
        )
    loss = Fraction(0)
    for point, prob in dist.support():
        if h_star.label(point.mask) != h_hat.label(point.mask):
            loss += prob
    return loss


def mc_loss(dist: Distribution, h_star: Concept, h_hat: Concept, m: int, seed: int) -> Fraction:
    """Empirical disagreement frequency over m seeded draws."""
    _check_loss_dims(dist, h_star, h_hat)
    if m <= 0:
        raise ValueError(f"sample count must be positive, got {m}")
    masks = sample(dist, m, seed)
    return Fraction(sum(map(ne, map(h_star.label, masks), map(h_hat.label, masks))), m)
