"""Distributions over the cube: sampling, pushforward, labelled samples, loss.

Probabilities are exact, and ``support_weights`` is each distribution's one
enumerated form: its support's masks ascending, each mass a positive int
weight over one denominator, a ``ProductDist``'s weights read lazily off one
``itertools.product``. ``exact_loss`` and ``evident.evidence_report`` sum
those weights, with no ``Fraction`` step per point; the one ``support()`` the
three classes share reads them as (mask, ``Fraction``) pairs. Draws, supports
and ``LabeledSample`` (a tuple of masks, labels as ``bytes``) hold int masks;
a ``CubePoint`` is built only for an error message or an iterated sample. A
support or sample mask out of range is refused by ``cube.require_masks``, and
a map, target or hypothesis off the distribution's dimension by
``cube.require_dimension``. A sample's ``cover`` names its labelled support:
each distinct (mask, label) pair at least once; ``LocalMQOracle.for_samples``
and learner phase 2 read only it. A drawn sample takes one of two forms, both
built here and picked by ``oracle.draw_training_set``: ``LabeledSample._drawn``
stores a masks tuple, with the sample itself as its cover;
``LabeledSample._by_index`` stores the (points, idx) pair of ``sample_indices``
and the drawn support points as its cover, and builds its masks tuple on the
first read of ``masks``: a sample read only through ``cover`` and ``len`` (s2
in a learning trial) never builds it.

``sample`` reads a seeded ``random.Random`` in one ``draws(rng, m)`` call, so
each draw replays bit-exactly. Each class reads the generator in one place:
``UniformCube`` (n <= 32) a block of 32-bit words at a time in ``_lanes``,
``FiniteSupport`` two words a draw in ``_indices``. ``sample_indices`` gives
the draws of a ``UniformCube`` to n = 8, or of a ``FiniteSupport`` with a
top-byte table, as point indices, which ``LabeledSample._by_index`` labels
by one ``translate``. ``label_masks`` and ``mc_loss`` label masks a block at
a time as lanes (``cube``), ``mc_loss`` a ``UniformCube`` block from ``_lanes``.
``mc_loss`` draws only when it must: two concepts whose ``cube.restrict``
tables over the coordinates they read are equal, computed when the table has
at most m points, agree at every draw, so their loss is 0 with no generator
built.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, product, repeat, starmap
from operator import mul
from typing import Iterator, Optional, Sequence, Union

from .cube import (
    CubePoint,
    ReplicateMap,
    exact_rational,
    first_bad_int,
    lane_bits,
    lane_columns,
    lane_split,
    require_count,
    require_dimension,
    require_enumerable,
    require_masks,
    require_sequence,
    restrict,
)
from .concepts import Concept


# Draws are read from the generator, and labelled, this many at a time.
_DRAW_BLOCK = 4096


class _Supported:
    """The one ``support()`` of every distribution."""

    def support(self) -> Iterator[tuple[int, Fraction]]:
        """(mask, mass) for each point of positive mass, masks ascending: each ``support_weights`` weight."""
        masks, weights, denominator = support_weights(self)
        return zip(masks, map(Fraction, weights, repeat(denominator)))


@dataclass(frozen=True)
class UniformCube(_Supported):
    """Uniform distribution on {-1,+1}^n. To n = 8 a draw's mask is its point index, a byte (``_indices``)."""

    n: int

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")

    def draws(self, rng: random.Random, m: int) -> list[int]:
        """m ``getrandbits(n)`` masks; to n = 32, each block of ``_lanes`` unpacked at once."""
        n = self.n
        if n > 32:
            return [rng.getrandbits(n) for _ in range(m)]
        out: list[int] = []
        for k, lanes in self._lanes(rng, m):
            out += struct.unpack(f"<{k}I", lanes.to_bytes(4 * k, "little"))
        return out

    def _indices(self, rng: random.Random, m: int) -> bytes:
        """The next m draws (n <= 8) as bytes: each mask is its own point index, the low byte of its lane."""
        return b"".join(lanes.to_bytes(4 * k, "little")[::4] for k, lanes in self._lanes(rng, m))

    def _lanes(self, rng: random.Random, m: int) -> Iterator[tuple[int, int]]:
        """(k, lanes) for the next m draws (n <= 32), ``_DRAW_BLOCK`` at a time: k draws as one int of 4-byte
        little-endian lanes, draw p in lane p: the top n bits of the generator's p-th word, ``getrandbits(n)``."""
        keep = _lane_ones(self.n, min(m, _DRAW_BLOCK))
        for start in range(0, m, _DRAW_BLOCK):
            k = min(_DRAW_BLOCK, m - start)
            yield k, rng.getrandbits(32 * k) >> 32 - self.n & keep


@dataclass(frozen=True)
class ProductDist(_Supported):
    """Independent coordinates; ``plus_probs[j-1]`` is the chance of +1 at j, an exact rational in [0, 1]."""

    n: int
    plus_probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        require_sequence("coordinate probabilities", self.plus_probs)
        if len(self.plus_probs) != self.n:
            raise ValueError(f"need {self.n} probabilities, got {len(self.plus_probs)}")
        probs = tuple(exact_rational(p, "probability") for p in self.plus_probs)
        if any(p < 0 or p > 1 for p in probs):
            raise ValueError("coordinate probabilities must lie in [0,1]")
        object.__setattr__(self, "plus_probs", probs)

    def draws(self, rng: random.Random, m: int) -> list[int]:
        """m masks, coordinate 1 first, +1 where ``random() < p``. As random() is k / 2**53, that holds iff
        k < ceil(p * 2**53): p is compared as that ceiling over 2**53, a float exact as its numerator is <= 2**53."""
        cuts, draw, out = [math.ceil(p * 2**53) / 2**53 for p in self.plus_probs], rng.random, []
        for _ in range(m):
            mask = 0
            for cut in cuts:
                mask = (mask << 1) | (draw() < cut)
            out.append(mask)
        return out


def _lane_ones(bits: int, lanes: int) -> int:
    """``bits`` low ones in each of ``lanes`` 4-byte little-endian lanes."""
    return int.from_bytes(((1 << bits) - 1).to_bytes(4, "little") * lanes, "little")


@dataclass(frozen=True)
class FiniteSupport(_Supported):
    """Point masses as ``(mask, prob)`` entries (int masks in [0, 2^n), exact masses summing to 1), drawn as indices:
    by the table ``_top`` if every top byte of random()'s first word names one entry, else by bisection."""

    n: int
    entries: tuple[tuple[int, Fraction], ...]
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _top: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        merged: dict[int, Fraction] = {}
        for mask, prob in self.entries:
            require_masks("support mask", (mask,), self.n)
            if (p := exact_rational(prob, "probability")) < 0:
                raise ValueError(f"negative probability {p} at {CubePoint(self.n, mask).to_string()}")
            merged[mask] = merged.get(mask, Fraction(0)) + p
        total = sum(merged.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")
        canonical = tuple((mask, merged[mask]) for mask in sorted(merged) if merged[mask])
        object.__setattr__(self, "entries", canonical)
        object.__setattr__(self, "_cum", tuple(accumulate(float(prob) for _, prob in canonical)))
        object.__setattr__(self, "_masks", tuple(mask for mask, _ in canonical))
        # Top byte t holds the 53-bit values t << 45 to (t + 1 << 45) - 1; _pick is monotone, so if both ends pick
        # one entry, every value under t does.
        top = bytes(self._pick(t << 45) for t in range(256)) if len(canonical) <= 256 else b""
        exact = all(self._pick((t + 1 << 45) - 1) == entry for t, entry in enumerate(top))
        object.__setattr__(self, "_top", top if exact else b"")

    def _pick(self, value: int) -> int:
        """The entry drawn when ``random()`` returns ``value / 2**53``; the last if the product rounds to the total."""
        return bisect_right(self._cum, value * 2**-53 * self._cum[-1], 0, len(self._cum) - 1)

    def _indices(self, rng: random.Random, m: int) -> Union[bytes, list[int]]:
        """The next m draws' entries, two generator words each: as bytes, one ``translate`` of the first words' top
        bytes through ``_top``, or without one as a list, ``_pick`` of random()'s own 53 bits: the top 27 of the
        first word, then the top 26 of the second."""
        top, out = self._top, bytearray() if self._top else []
        for start in range(0, m, _DRAW_BLOCK):
            k = min(_DRAW_BLOCK, m - start)
            # getrandbits puts its first 32-bit output lowest on every host: word j is bytes 4j to 4j + 3 here.
            words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
            if top:
                out += words[3::8].translate(top)  # each draw's first word's top byte
            else:
                out += [self._pick((a >> 5) << 26 | b >> 6) for a, b in struct.iter_unpack("<2I", words)]
        return bytes(out) if top else out

    def draws(self, rng: random.Random, m: int) -> list[int]:
        """m masks: the entries ``_indices`` draws, read through the entry masks."""
        masks = self._masks
        return [masks[i] for i in self._indices(rng, m)]


Distribution = Union[UniformCube, ProductDist, FiniteSupport]


def support_weights(dist: Distribution) -> tuple[Sequence[int], Iterator[int], int]:
    """(masks, weights, denominator): the mass at ``masks[i]``, ascending, is the i-th positive int weight over the
    denominator. A ``FiniteSupport``'s entries at any n, else the cube (n <= ``ENUMERATION_CAP``) less its points of
    mass 0. The weights are an iterator, read once; a ``ProductDist``'s come lazily, one multiplication a point, off
    the ``product`` of two lists: the weights of coordinates 1..n//2 (the high bits) and those of the rest."""
    if isinstance(dist, FiniteSupport):
        denominator = math.lcm(*(p.denominator for _, p in dist.entries))
        return dist._masks, (p.numerator * (denominator // p.denominator) for _, p in dist.entries), denominator
    require_enumerable(dist.n)
    cube = range(1 << dist.n)
    if isinstance(dist, UniformCube):
        return cube, repeat(1, len(cube)), len(cube)
    denominator = math.lcm(*(p.denominator for p in dist.plus_probs))
    pairs = [(denominator - int(p * denominator), int(p * denominator)) for p in dist.plus_probs]
    halves = [[math.prod(w) for w in product(*part)] for part in (pairs[: dist.n // 2], pairs[dist.n // 2 :])]
    masks = cube if all(map(all, pairs)) else tuple(compress(cube, starmap(mul, product(*halves))))
    return masks, filter(None, starmap(mul, product(*halves))), denominator**dist.n


def sample(dist: Distribution, m: int, seed: int) -> list[int]:
    """m i.i.d. draws as point masks, reproducible from the seed."""
    require_count(m, 0, "sample count must be non-negative")
    return dist.draws(random.Random(seed), m)


def sample_indices(dist: Distribution, m: int, seed: int) -> Optional[tuple[Sequence[int], bytes]]:
    """``sample`` of a distribution drawn by point index (a ``UniformCube`` to n = 8, a ``FiniteSupport`` with a
    top-byte table ``_top``) as (points, idx): draw i is ``points[idx[i]]``, from the generator words ``sample``
    reads; no tuple of masks is built. None, with m unchecked, for any other distribution."""
    if isinstance(dist, UniformCube) and dist.n <= 8:
        points: Sequence[int] = range(1 << dist.n)
    elif isinstance(dist, FiniteSupport) and dist._top:
        points = dist._masks
    else:
        return None
    require_count(m, 0, "sample count must be non-negative")
    return points, dist._indices(random.Random(seed), m)


def pushforward(dist: Distribution, phi: ReplicateMap) -> FiniteSupport:
    """Image distribution assigning each source mass to its mapped point.

    A ``ReplicateMap`` is injective, so no two masses merge.
    """
    require_dimension("distribution", dist.n, phi.source_n)
    return FiniteSupport(phi.target_n, tuple((phi.encode(mask), prob) for mask, prob in dist.support()))


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sample over {-1,+1}^n: ``masks[i]`` labelled ``labels[i]``, a tuple of ints and ``bytes`` of 0/1.

    The constructor refuses masks or labels that are not an ordered
    ``Sequence`` (one without a length, or a set, frozenset, dict or dict
    view, whose order would pair labels with the wrong masks), then masks
    outside [0, 2^n) (``cube.require_masks``) and labels other than 0 or 1,
    then stores any sequence given in that one form. A drawn sample skips both
    steps, as its draws are in range and its labels are ``label_masks`` bytes:
    ``_drawn`` stores a tuple of draws, ``_by_index`` their indices (below).

    ``cover`` is a derived view, not a field (equality, hash and ``repr`` ignore
    it): a (masks, labels) pair holding every distinct (mask, label) pair of the
    sample at least once and no other, repeats allowed, for readers that dedupe.
    It defaults to the sample itself; a sample drawn by index stores the drawn
    support points and their labels instead, at most 256 pairs for any m.

    ``_by_index`` stores ``_indexed``, the (points, idx) pair of
    ``sample_indices``, in place of masks: ``__getattr__`` builds the masks tuple
    on the first read, ``points[idx[i]]`` for each draw i, and stores it in place
    of the pair, so every later read, ``==``, ``hash`` and ``repr`` see the one
    tuple form. ``len`` reads the labels, of equal length, and builds nothing.
    """

    n: int
    masks: tuple[int, ...]
    labels: bytes

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        require_sequence("sample masks", self.masks)
        require_sequence("sample labels", self.labels)
        if len(self.masks) != len(self.labels):
            raise ValueError(f"{len(self.masks)} masks but {len(self.labels)} labels")
        require_masks("sample mask", self.masks, self.n)
        if first_bad_int(self.labels, 0, 1) is not None:
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "masks", tuple(self.masks))  # after the checks: bytes((True,)) would be b"\x01"
        object.__setattr__(self, "labels", bytes(self.labels))

    @classmethod
    def _drawn(cls, n: int, masks: tuple[int, ...], labels: bytes) -> LabeledSample:
        """A drawn sample, stored unchecked: in-range draws and the bytes ``label_masks`` gave them."""
        drawn = cls.__new__(cls)
        drawn.__dict__.update(n=n, masks=masks, labels=labels)
        return drawn

    @classmethod
    def _by_index(cls, n: int, points: Sequence[int], idx: bytes, table: bytes) -> LabeledSample:
        """A sample drawn by index, stored unchecked: draw i is ``points[idx[i]]``, labelled ``table[idx[i]]``,
        with the ``cover`` of the support points ``idx`` names."""
        seen = [bytes((i,)) in idx for i in range(len(points))]
        drawn = cls.__new__(cls)
        drawn.__dict__.update(n=n, _indexed=(points, idx), labels=idx.translate(table.ljust(256, b"\0")),
                              cover=(tuple(compress(points, seen)), bytes(compress(table, seen))))
        return drawn

    @cached_property
    def cover(self) -> tuple[Sequence[int], bytes]:
        return self.masks, self.labels

    def __getattr__(self, name: str) -> tuple[int, ...]:
        # Runs only for a name not in __dict__: the masks of a sample drawn by index, built once from its indices and
        # stored in their place. The pair is dropped after the store, so a first read racing another in a second
        # thread finds the pair or, once it is gone, the masks.
        state = self.__dict__
        if name != "masks" or (indexed := state.get("_indexed")) is None:
            if name == "masks" and "masks" in state:
                return state["masks"]
            raise AttributeError(name)
        points, idx = indexed
        masks = state["masks"] = tuple(idx) if isinstance(points, range) else tuple([points[i] for i in idx])
        state.pop("_indexed", None)
        return masks

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[tuple[CubePoint, int]]:
        return ((CubePoint(self.n, m), y) for m, y in zip(self.masks, self.labels))


def label_masks(concept: Concept, masks: Sequence[int]) -> bytes:
    """Each in-range mask's label as a byte 0 or 1: one ``label_columns`` call per ``_DRAW_BLOCK`` masks as lanes."""
    labels = bytearray()
    for start in range(0, len(masks), _DRAW_BLOCK):
        block = masks[start:start + _DRAW_BLOCK]
        columns, full, width = lane_columns(block, concept.n, concept.reads)
        labels += lane_bits(concept.label_columns(columns, full), len(block), width)
    return bytes(labels)


def exact_loss(dist: Distribution, h_star: Concept, h_hat: Concept) -> Fraction:
    """Exact disagreement mass between two concepts: the ``support_weights`` where their ``label_masks`` differ,
    for a ``FiniteSupport`` at any n and a cube distribution to ``ENUMERATION_CAP``, above which ``support_weights``
    refuses it (``mc_loss`` estimates there). A support point h_star cannot label raises its ``label`` error, at the
    first such point in mask order."""
    require_dimension("target", h_star.n, dist.n)
    require_dimension("hypothesis", h_hat.n, dist.n)
    masks, weights, denominator = support_weights(dist)
    differ = map(int.__ne__, label_masks(h_star, masks), label_masks(h_hat, masks))
    return Fraction(sum(compress(weights, differ)), denominator)


def _lane_blocks(dist: Distribution, rng: random.Random, m: int, reads: int) -> Iterator[tuple[list[int], int]]:
    """(columns, full) of the next m draws, ``_DRAW_BLOCK`` at a time: a ``UniformCube`` to n = 32 split straight
    from its packed ``_lanes`` (``full`` built once), any other through ``lane_columns`` of ``draws``."""
    n = dist.n
    if isinstance(dist, UniformCube) and n <= 32:
        ones = _lane_ones(1, min(m, _DRAW_BLOCK))
        for k, lanes in dist._lanes(rng, m):
            full = ones & (1 << 32 * k) - 1  # the last block may be short
            yield lane_split(lanes, full, n, reads), full
        return
    for start in range(0, m, _DRAW_BLOCK):
        columns, full, _ = lane_columns(dist.draws(rng, min(_DRAW_BLOCK, m - start)), n, reads)
        yield columns, full


def mc_loss(dist: Distribution, h_star: Concept, h_hat: Concept, m: int, seed: int) -> Fraction:
    """Empirical disagreement frequency over the m draws ``sample(dist, m, seed)`` gives, labelled by
    ``label_columns`` a block of lanes (``_lane_blocks``) at a time over the columns either concept ``reads``.

    It decides on those r read coordinates first: where the 2^r-point table costs no more than the draws (2^r <= m,
    r <= ``ENUMERATION_CAP``), equal ``cube.restrict`` tables mean the concepts agree at every point, so every draw
    agrees and the loss is 0 with no generator built. Tables that differ, or a table that raises (a point a concept
    cannot label), leave it to the draws, which count the disagreements or raise the error the draws meet."""
    require_dimension("target", h_star.n, dist.n)
    require_dimension("hypothesis", h_hat.n, dist.n)
    require_count(m, 1, "sample count must be positive")
    reads = h_star.reads | h_hat.reads
    if 1 << reads.bit_count() <= m:
        try:  # ``restrict`` refuses r above ``ENUMERATION_CAP``, and a concept a point it cannot label
            if restrict(h_star, reads) == restrict(h_hat, reads):
                return Fraction(0, m)
        except ValueError:
            pass
    wrong = 0
    for columns, full in _lane_blocks(dist, random.Random(seed), m, reads):
        wrong += (h_star.label_columns(columns, full) ^ h_hat.label_columns(columns, full)).bit_count()
    return Fraction(wrong, m)
