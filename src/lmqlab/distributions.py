"""Distributions over the cube: sampling, pushforward, labelled samples, loss.

Probabilities are exact, and ``support_weights`` is each distribution's one
enumerated form: its support's masks ascending, each mass a positive int
weight over one denominator, a ``ProductDist``'s weights read lazily off one
``itertools.product``. A ``FiniteSupport`` weighs its entries once, on
construction, as int numerators over the lcm of their denominators, and
keeps their running sums, the one form of the masses that its weights, its
exact draws and its top-byte table read. ``exact_loss`` and
``evident.evidence_report`` sum those weights, with no ``Fraction`` step per
point; the one ``support()`` the three classes share reads them as (mask,
``Fraction``) pairs, and ``pushforward`` builds one ``Fraction`` per distinct
weight. Draws, supports and ``LabeledSample`` (a
tuple of masks, labels as ``bytes``) hold int masks; a ``CubePoint`` is built
only for an error message or an iterated sample. A support or sample mask out
of range is refused by ``cube.require_masks``, and a map, target or hypothesis
off the distribution's dimension by ``cube.require_dimension``. A sample's ``cover`` names its labelled support:
each distinct (mask, label) pair at least once; ``LocalMQOracle.for_samples``
and learner phase 2 read only it. A drawn sample takes one of two forms, both
built here and picked by ``oracle.draw_training_set``: ``LabeledSample._drawn``
stores a masks tuple, with the sample itself as its cover;
``LabeledSample._by_index`` stores the draw of ``sample_indices`` and the
drawn support points as its cover, and builds its masks tuple on the first
read of ``masks``. That draw stops at the first block that has drawn every
support point, and the rest is drawn, from the saved generator state, on the
first read of ``labels`` or ``masks``: a sample read only through ``cover``
and ``len`` (s2 in a learning trial) never draws past its covering block and
never builds its masks. ``positive_counts()`` (s1 in a learning trial) draws
the rest and stores the labels, and counts the point indices, so it builds no
masks either.

``sample`` reads a seeded ``random.Random`` in one ``draws(rng, m)`` call, so
each draw replays bit-exactly. Each class reads the generator in one place:
``UniformCube`` (n <= 32) a block of 32-bit words at a time in ``_lanes``,
``FiniteSupport`` two words a draw in ``_indices``. ``sample_indices`` gives
the draws of a ``UniformCube`` to n = 8, or of a ``FiniteSupport`` with a
top-byte table, as point indices, a block at a time until every point is
drawn, which ``LabeledSample._by_index`` labels by one ``translate``. Each
generator word is read once, whether the draws stop or not. ``label_masks``
and ``mc_loss`` label masks a block at a time as lanes, each block one
``cube.lane_columns`` call on its masks. ``mc_loss`` draws only when it must:
two concepts whose ``cube.restrict`` tables over the coordinates they read are
equal, computed when the table has at most m points, agree at every draw, so
their loss is 0 with no generator built.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, compress, product, repeat, starmap
from operator import mul, not_, sub
from typing import Callable, Iterator, Optional, Sequence, Union

from .cube import (
    CubePoint,
    ReplicateMap,
    exact_rational,
    first_bad_int,
    is_int,
    lane_bits,
    lane_columns,
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
        keep = int.from_bytes(((1 << self.n) - 1).to_bytes(4, "little") * min(m, _DRAW_BLOCK), "little")
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


@dataclass(frozen=True)
class FiniteSupport(_Supported):
    """Point masses as ``(mask, prob)`` entries (int masks in [0, 2^n), exact masses summing to 1), drawn as indices:
    by the table ``_top`` if every mass is a multiple of 1/256, else by an exact integer bisection, ``_pick``.

    Construction checks each entry in order, its mask before its mass, then sums the masses as int numerators over
    the lcm of their denominators, duplicate masks merged. It stores the running sums ``_cum`` of those weights,
    reduced by any factor a merge leaves, so the last is the denominator, and keeps the ``Fraction`` masses given
    unless two masks merged."""

    n: int
    entries: tuple[tuple[int, Fraction], ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _cum: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _top: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        require_count(n, 1, "dimension must be a positive integer")
        given = []
        for mask, prob in self.entries:
            if not is_int(mask, 0, (1 << n) - 1):
                require_masks("support mask", (mask,), n)
            if (p := exact_rational(prob, "probability")).numerator < 0:
                raise ValueError(f"negative probability {p} at {CubePoint(n, mask).to_string()}")
            given.append((mask, p))
        # Each mass as an int numerator over the lcm of the denominators, duplicate masks summed.
        denominator, weights = math.lcm(*{p.denominator for _, p in given}), {}
        for mask, p in given:
            weights[mask] = weights.get(mask, 0) + p.numerator * (denominator // p.denominator)
        if (total := sum(weights.values())) != denominator:
            raise ValueError(f"probabilities sum to {Fraction(total, denominator)}, expected exactly 1")
        # Only a merge can leave a factor common to the denominator and every weight.
        common = math.gcd(denominator, *weights.values())
        masks, denominator = tuple(sorted(mask for mask, w in weights.items() if w)), denominator // common
        numerators = tuple(weights[mask] // common for mask in masks)
        if len(weights) == len(given):  # no two masks merged: the masses given
            masses = map(dict(given).__getitem__, masks)
        else:
            masses = map(Fraction, numerators, repeat(denominator))
        object.__setattr__(self, "entries", tuple(zip(masks, masses)))
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_cum", tuple(accumulate(numerators)))
        # Top byte t holds random()'s values in [t / 256, (t + 1) / 256). If the denominator divides 256, every
        # running sum over it is a multiple of 1/256, so each top byte lies in one entry, entry i filling
        # 256 // denominator bytes per unit of its weight. Any other support draws by _pick.
        unit, rest = divmod(256, denominator)
        top = b"".join(bytes((i,)) * (unit * w) for i, w in enumerate(numerators)) if not rest else b""
        object.__setattr__(self, "_top", top)

    def _pick(self, value: int) -> int:
        """The entry drawn when ``random()`` returns ``value / 2**53``: the i with ``_cum[i-1] <= value / 2**53 *
        denominator < _cum[i]``. The running sums are ints, so bisecting the floor of that product is exact."""
        return bisect_right(self._cum, value * self._cum[-1] >> 53)

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
    denominator. A ``FiniteSupport``'s entries at any n, each weight the step between two of its running sums, the
    last of which is the denominator, else the cube (n <= ``ENUMERATION_CAP``) less its points of mass 0. The weights
    are an iterator, read once; a ``ProductDist``'s come lazily, one multiplication a point, off the ``product`` of
    two lists: the weights of coordinates 1..n//2 (the high bits) and those of the rest."""
    if isinstance(dist, FiniteSupport):
        cum = dist._cum
        return dist._masks, map(sub, cum, (0, *cum)), cum[-1]
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


def sample_indices(
    dist: Distribution, m: int, seed: int
) -> Optional[tuple[Sequence[int], bytes, Optional[Callable[[], bytes]]]]:
    """``sample`` of a distribution drawn by point index (a ``UniformCube`` to n = 8, a ``FiniteSupport`` with a
    top-byte table ``_top``) as (points, idx, rest): draw i is ``points[idx[i]]``, from the generator words
    ``sample`` reads, ``_DRAW_BLOCK`` at a time; no tuple of masks is built. It stops after the first block by which
    every point has been drawn: ``rest`` then gives the indices of the draws left, read from the generator's state
    at the stop, the same bytes at every call. ``rest`` is None once all m are drawn. None, with m unchecked, for
    any other distribution."""
    if isinstance(dist, UniformCube) and dist.n <= 8:
        points: Sequence[int] = range(1 << dist.n)
    elif isinstance(dist, FiniteSupport) and dist._top:
        points = dist._masks
    else:
        return None
    require_count(m, 0, "sample count must be non-negative")
    rng, blocks, missing = random.Random(seed), [], bytes(range(len(points)))
    for start in range(0, m, _DRAW_BLOCK):
        end = min(start + _DRAW_BLOCK, m)
        blocks.append(dist._indices(rng, end - start))
        missing = missing.translate(None, blocks[-1])  # the points no block has drawn yet
        if not missing and end < m:
            return points, b"".join(blocks), partial(_resume, dist, rng.getstate(), m - end)
    return points, b"".join(blocks), None


def _resume(dist: Distribution, state: tuple, k: int) -> bytes:
    """The next k index draws of ``dist`` from a new generator set to ``state``: the same bytes at every call."""
    rng = random.Random(0)  # a fixed seed costs less than one from the OS, and setstate replaces it
    rng.setstate(state)
    return dist._indices(rng, k)


def pushforward(dist: Distribution, phi: ReplicateMap) -> FiniteSupport:
    """Image distribution assigning each source mass to its mapped point: each ``support_weights`` mask encoded, its
    weight over the denominator as one ``Fraction`` per distinct weight.

    A ``ReplicateMap`` is injective, so no two masses merge.
    """
    require_dimension("distribution", dist.n, phi.source_n)
    masks, weights, denominator = support_weights(dist)
    weights = tuple(weights)
    mass = {w: Fraction(w, denominator) for w in set(weights)}
    return FiniteSupport(phi.target_n, tuple(zip(map(phi.encode, masks), map(mass.__getitem__, weights))))


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

    ``_by_index`` stores ``_indexed``, the ``sample_indices`` draw with its
    label table and m, in place of masks: ``__getattr__`` builds the masks tuple
    on the first read, ``points[idx[i]]`` for each draw i, and stores it in place
    of the draw, so every later read, ``==``, ``hash`` and ``repr`` see the one
    tuple form. A draw that stopped at its covering block also waits for its
    labels: the first read of ``masks`` or ``labels`` draws the rest from the
    saved generator state, then stores both. ``len`` reads the labels, or m while
    the draw is stored, and draws and builds nothing. ``positive_counts()`` also
    reads the draw without building the masks tuple.
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
    def _by_index(
        cls, n: int, m: int, points: Sequence[int], idx: bytes, rest: Optional[Callable[[], bytes]], table: bytes
    ) -> LabeledSample:
        """m draws by index, stored unchecked: draw i is ``points[idx[i]]``, labelled ``table[idx[i]]``, with the
        ``cover`` of the support points ``idx`` names. Without ``rest``, idx is every draw, labelled here by one
        ``translate``; with it, idx stops at the first block by which every point was drawn, and the labels wait."""
        # A draw that stopped did so because it had drawn every point; only a full draw is scanned for them.
        seen = [True] * len(points) if rest is not None else [bytes((i,)) in idx for i in range(len(points))]
        table = table.ljust(256, b"\0")
        drawn = cls.__new__(cls)
        drawn.__dict__.update(n=n, _indexed=(points, idx, rest, table, m),
                              cover=(tuple(compress(points, seen)), bytes(compress(table, seen))))
        if rest is None:
            drawn.__dict__["labels"] = idx.translate(table)
        return drawn

    @cached_property
    def cover(self) -> tuple[Sequence[int], bytes]:
        return self.masks, self.labels

    def __getattr__(self, name: str) -> Union[tuple[int, ...], bytes]:
        # Runs only for a name not in __dict__: the masks of a sample drawn by index, and the labels of one whose draw
        # stopped at its cover. The first read draws the rest from the saved state (the same bytes at every call),
        # stores the labels, then the masks, and drops the draw last, so a first read racing another in a second
        # thread finds the draw or, once it is gone, the masks and labels.
        state = self.__dict__
        if name not in ("masks", "labels") or (indexed := state.get("_indexed")) is None:
            if name in state:
                return state[name]
            raise AttributeError(name)
        points, idx, rest, table, _ = indexed
        if rest is not None:
            idx += rest()
            state["labels"] = idx.translate(table)
        state["masks"] = tuple(idx) if isinstance(points, range) else tuple([points[i] for i in idx])
        state.pop("_indexed", None)
        return state[name]

    def positive_counts(self) -> dict[int, int]:
        """Each positive mask's number of draws, in order of first draw: ``Counter(compress(masks, labels))``.

        A sample drawn by index counts its point indices instead, and builds no masks tuple: it draws the rest if its
        draw stopped and stores the labels, then counts the indices its table labels 1 (one ``translate`` deleting
        the rest). Its ``_indexed`` stays, so a later first read of ``masks`` draws the rest again, the same bytes.
        """
        indexed = self.__dict__.get("_indexed")
        if indexed is None:
            return Counter(compress(self.masks, self.labels))
        points, idx, rest, table, _ = indexed
        if rest is not None:
            idx += rest()
            self.__dict__["labels"] = idx.translate(table)
        counts = Counter(idx.translate(None, bytes(compress(range(256), map(not_, table)))))
        return {points[i]: count for i, count in counts.items()}

    def __len__(self) -> int:
        indexed = self.__dict__.get("_indexed")
        return len(self.labels) if indexed is None else indexed[4]

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


def mc_loss(dist: Distribution, h_star: Concept, h_hat: Concept, m: int, seed: int) -> Fraction:
    """Empirical disagreement frequency over the m draws ``sample(dist, m, seed)`` gives: each ``_DRAW_BLOCK`` of
    ``draws`` is one ``lane_columns`` call over the coordinates either concept ``reads``, labelled by ``h_star``'s
    ``label_columns``, then ``h_hat``'s, so a block's first error is h_star's.

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
    rng, wrong = random.Random(seed), 0
    for start in range(0, m, _DRAW_BLOCK):
        columns, full, _ = lane_columns(dist.draws(rng, min(_DRAW_BLOCK, m - start)), dist.n, reads)
        wrong += (h_star.label_columns(columns, full) ^ h_hat.label_columns(columns, full)).bit_count()
    return Fraction(wrong, m)
