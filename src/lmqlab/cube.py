"""Points of the boolean cube {-1,+1}^n, their Hamming geometry, and the replication map.

Coordinates are 1-based throughout the package. A point is stored as a
bit mask so that flips and distances reduce to integer arithmetic: the
distance of two points is the popcount of their masks' XOR, and the cube in
lexicographic order is the masks ``range(1 << n)``, enumerated as masks only
(``distributions.support_weights``, ``cube_columns``); ``restrict`` lays that cube over the coordinates a
concept reads, so a concept's whole table costs 2^r points for r read coordinates, not 2^n. Hot paths pass the
bare int masks (the oracle's anchor scan, ``ReplicateMap.encode``/``decode``,
which compute each block per call, so a map holds only n and k);
``CubePoint`` is the API form.

A point list can also be held bit-sliced, as columns: column i is the bitset
of the list positions whose point has mask bit i set (``cube_columns``,
``ball_columns``), so one bitset operation acts on every point at once. Drawn
masks are held as lanes (``lane_columns``, read back by ``lane_bits``): point p
owns lane p of one packed integer; a column holds its bit at the lane's lowest.

Every int the package takes obeys ``is_int`` (the type int itself, never a bool or a float, in a range), a whole
tuple at once ``first_bad_int``, and every exact rational ``exact_rational``. The one order rule,
``require_sequence``, refuses a set, frozenset, dict or dict view where a value keeps an order (sample masks and
labels, product probabilities, junta variables and table, automaton rows): none is silently reordered. The one cap
rule, ``require_at_most`` (``{what}: {size} exceeds the cap of {cap}``), is every desk-scale limit's test, made
before what it bounds is built; ``require_enumerable`` is its ``ENUMERATION_CAP`` form.

Every value used on a cube must fit it, by one of three rules, each raising ``DimensionMismatch`` in one message
shape: ``require_dimension`` (a point, sample, anchor, map or concept of another dimension), ``require_masks``
(a mask that is not an int in 0..2^n - 1) and ``require_variables`` (a variable index outside 1..n). No other module
builds a ``DimensionMismatch``; a hot path keeps its own inline test and calls the rule only to raise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from operator import countOf
from typing import TYPE_CHECKING, Collection, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .concepts import Concept

ENUMERATION_CAP = 24
_set = object.__setattr__  # a frozen dataclass's own field setter, bound once


class DimensionMismatch(ValueError):
    """Raised when a value does not fit the cube it is used on: by ``require_dimension``, ``require_masks`` and
    ``require_variables`` alone."""


def is_int(value: object, least: int, most: Optional[int] = None) -> bool:
    """The one rule for an int: the type int itself (no bool, no float) in least..most, or from least up."""
    return type(value) is int and least <= value and (most is None or value <= most)


def first_bad_int(values: Collection[object], least: int, most: int) -> Optional[int]:
    """The position of the first value ``is_int`` refuses, or None: one C-level pass over the types, then ``min``
    and ``max`` (of the set of values if least..most is shorter than the list); only a failure walks the values."""
    if values and countOf(map(type, values), int) == len(values):
        span = set(values) if most - least < len(values) else values
        if least <= min(span) and max(span) <= most:
            return None
    return next((i for i, value in enumerate(values) if not is_int(value, least, most)), None)


def require_count(value: object, least: int, what: str) -> None:
    """Refuse a count, dimension or budget that ``is_int`` refuses, with ``what`` as the message."""
    if not is_int(value, least):
        raise ValueError(f"{what}, got {value!r}")


def exact_rational(value: object, what: str) -> Fraction:
    """An int, a finite float or a Fraction as the exact Fraction it denotes; a bool, nan, an infinity or any
    other type is refused, as no coefficient, threshold or probability could mean it."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int or isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    raise ValueError(f"{what} must be an int, a finite float or a Fraction, got {value!r}")


def require_at_most(what: str, size: int, cap: int) -> None:
    """The one cap rule: refuse a ``size`` above its desk-scale ``cap``, before what it bounds is built."""
    if size > cap:
        raise ValueError(f"{what}: {size} exceeds the cap of {cap}")


def require_enumerable(n: int) -> None:
    """Refuse to enumerate 2^n points above ``ENUMERATION_CAP``, so exhaustive loops stay at desk scale."""
    require_at_most("enumerated cube dimension", n, ENUMERATION_CAP)


def require_sequence(what: str, values: object) -> None:
    """The one order rule: refuse ``values`` that are not a ``Sequence``, as a set or a dict keeps no order given."""
    if not isinstance(values, Sequence):
        raise ValueError(f"{what} must be a sequence (ordered, with a length), got {type(values).__name__}")


def require_dimension(what: str, have: int, want: int) -> None:
    """Refuse ``what`` of dimension ``have`` where the cube has dimension ``want``."""
    if have != want:
        raise DimensionMismatch(f"{what} has dimension {have}, expected {want}")


def require_masks(what: str, masks: Collection[object], n: int) -> None:
    """Refuse the first of ``masks`` that ``is_int`` refuses as an n-bit mask, in 0..2^n - 1."""
    if (i := first_bad_int(masks, 0, (1 << n) - 1)) is not None:
        raise DimensionMismatch(f"{what} {next(islice(masks, i, None))!r} out of range for dimension {n}")


def require_variables(what: str, variables: Collection[object], n: int) -> None:
    """Refuse the first of ``variables`` that ``is_int`` refuses as a 1-based variable index, in 1..n."""
    if (i := first_bad_int(variables, 1, n)) is not None:
        raise DimensionMismatch(f"{what} {next(islice(variables, i, None))!r} out of range 1..{n}")


@dataclass(frozen=True, slots=True, init=False)
class CubePoint:
    """A point of {-1,+1}^n.

    Bit (n - j) of ``mask`` is 1 iff coordinate j equals +1, i.e. masks
    ascend in lexicographic order of the coordinate tuple with -1 < +1.
    The constructor checks both fields in one test before setting them: no ``__post_init__`` call.
    """

    n: int
    mask: int

    def __init__(self, n: int, mask: int) -> None:
        if not (is_int(n, 1) and is_int(mask, 0, (1 << n) - 1)):
            require_count(n, 1, "dimension must be a positive integer")
            require_masks("mask", (mask,), n)
        _set(self, "n", n)
        _set(self, "mask", mask)

    @classmethod
    def from_string(cls, text: str) -> "CubePoint":
        """Parse a point from a string over {'+','-'}, e.g. "+-+" = (+1,-1,+1)."""
        if not text or any(c not in "+-" for c in text):
            raise ValueError(f"point string must be non-empty over '+'/'-', got {text!r}")
        mask = 0
        for c in text:
            mask = (mask << 1) | (c == "+")
        return cls(len(text), mask)

    def bit(self, j: int) -> int:
        """Value (+1 or -1) of coordinate j, 1-based."""
        require_variables("coordinate", (j,), self.n)
        return 1 if (self.mask >> (self.n - j)) & 1 else -1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(j) for j in range(1, self.n + 1))

    def to_string(self) -> str:
        return "".join("+" if (self.mask >> (self.n - j)) & 1 else "-" for j in range(1, self.n + 1))

    def flip(self, j: int) -> "CubePoint":
        require_variables("coordinate", (j,), self.n)
        return CubePoint(self.n, self.mask ^ (1 << (self.n - j)))

    def __repr__(self) -> str:
        return f"CubePoint({self.to_string()!r})"


def ball_size(n: int, q: int) -> int:
    """Number of points within Hamming distance q of a point of {-1,+1}^n."""
    total, c = 0, 1
    for r in range(q + 1):
        total += c
        c = c * (n - r) // (r + 1)
    return total


def masks_at_distance(mask: int, n: int, r: int) -> Iterator[int]:
    """All masks at Hamming distance exactly r from the given n-bit mask."""
    for positions in combinations(range(n), r):
        m = mask
        for p in positions:
            m ^= 1 << p
        yield m


@lru_cache(maxsize=None)
def cube_columns(n: int) -> tuple[int, ...]:
    """Columns of all 2^n points in mask order: bit m of column i is bit i of mask m. Built by doubling: the
    2^(k+1) points are the 2^k twice, the second copy with bit k set, so each column is ORed with itself shifted
    by 2^k and the new column k is 2^k ones shifted by 2^k; no big-int division."""
    columns: tuple[int, ...] = ()
    for k in range(n):
        half = 1 << k
        columns = (*(c | c << half for c in columns), ((1 << half) - 1) << half)
    return columns


def restrict(concept: Concept, reads: int) -> int:
    """The bitset of the 2^r points over the r coordinates in ``reads`` that ``concept`` labels 1, in mask order of
    those coordinates (r <= ``ENUMERATION_CAP``): one ``label_columns`` call on ``cube_columns(r)``, placed at the
    read coordinates, every other column 0. For a concept reading within ``reads``, it is the concept's table."""
    r = reads.bit_count()
    require_enumerable(r)
    table = iter(cube_columns(r))
    columns = [next(table) if reads >> i & 1 else 0 for i in range(concept.n)]
    return concept.label_columns(columns, (1 << (1 << r)) - 1)


@lru_cache(maxsize=None)
def ball_columns(n: int, r: int) -> tuple[int, ...]:
    """Columns of the n-bit flip patterns of weight 1..r, weight ascending, then in ``masks_at_distance``
    order; ``recentre`` moves them onto the ball around a point. The weight-w patterns over bits
    a..n-1 hold bit a first, so each column is a concatenation, with no loop over patterns."""

    @lru_cache(maxsize=None)
    def combos(a: int, w: int) -> tuple[int, tuple[int, ...]]:
        if w == 0 or n - a < w:
            return int(w == 0), (0,) * (n - a)
        hit, hit_columns = combos(a + 1, w - 1)
        miss, miss_columns = combos(a + 1, w)
        return hit + miss, ((1 << hit) - 1,) + tuple(h | m << hit for h, m in zip(hit_columns, miss_columns))

    columns, offset = [0] * n, 0
    for w in range(1, r + 1):
        count, block = combos(0, w)
        columns = [c | b << offset for c, b in zip(columns, block)]
        offset += count
    return tuple(columns)


def recentre(columns: Sequence[int], full: int, centre: int) -> list[int]:
    """The columns of every listed point XOR ``centre``; ``full`` has one bit per point."""
    return [c ^ full if centre >> i & 1 else c for i, c in enumerate(columns)]


def count_above(columns: Sequence[int], t: int) -> int:
    """Bitset of the points set in more than t of the columns, by a saturating bit-sliced count."""
    above = [0] * (t + 1)  # above[s]: set in more than s of the columns read so far
    for c in columns:
        for s in range(t, 0, -1):
            above[s] |= above[s - 1] & c
        above[0] |= c
    return above[t]


def lane_columns(masks: Sequence[int], n: int, reads: int) -> tuple[list[int], int, int]:
    """(columns, full, width): mask p in lane p of ``width`` bytes (the least power of two >= n/8) of one
    little-endian int; ``full`` holds each lane's lowest bit, column i (if i is in ``reads``, else 0) its bit i."""
    width = 1 << max(0, (n - 1).bit_length() - 3)
    if width <= 8:
        packed = struct.pack(f"<{len(masks)}{'BHIQ'[width.bit_length() - 1]}", *masks)
    else:
        packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    full = int.from_bytes((1).to_bytes(width, "little") * len(masks), "little")
    return lane_split(int.from_bytes(packed, "little"), full, n, reads), full, width


def lane_split(bits: int, full: int, n: int, reads: int) -> list[int]:
    """The columns of packed lanes: column i (if i is in ``reads``, else 0) holds each lane's bit i at its lowest."""
    return [bits >> i & full if reads >> i & 1 else 0 for i in range(n)]


def lane_bits(bitset: int, count: int, width: int) -> bytes:
    """Each lane's lowest bit as a byte 0 or 1, for a ``bitset`` within ``full`` of ``count`` lanes."""
    return bitset.to_bytes(count * width, "little")[::width]


def iter_bits(bitset: int) -> Iterator[int]:
    while bitset:
        lowest = bitset & -bitset
        yield lowest.bit_length() - 1
        bitset ^= lowest


@dataclass(frozen=True)
class ReplicateMap:
    """Each source coordinate expanded into k adjacent copies.

    Source coordinate i lands on target coordinates (i-1)*k+1 .. i*k, so
    Hamming distances scale exactly by k.
    """

    source_n: int
    k: int

    def __post_init__(self) -> None:
        n, k = self.source_n, self.k
        if not (is_int(n, 1) and is_int(k, 1)):
            raise ValueError(f"need positive dimension and factor, got n={n}, k={k}")

    @property
    def target_n(self) -> int:
        return self.source_n * self.k

    def apply(self, x: CubePoint) -> CubePoint:
        require_dimension("point", x.n, self.source_n)
        return CubePoint(self.target_n, self.encode(x.mask))

    def encode(self, mask: int) -> int:
        """Target mask of the image of a source mask: each bit copied across its block, computed per call.

        A hot path, so the mask is read unchecked: ``ReplicateMap(2, 3).encode(4)`` is mask 0's image, and a
        bool reads as 0 or 1. ``apply`` is the checked form.
        """
        k, block, image = self.k, (1 << self.k) - 1, 0
        for i in range(self.source_n):
            if mask >> i & 1:
                image |= block << i * k
        return image

    def decode(self, mask: int) -> int:
        """Source mask whose image is nearest to the target mask: each block's majority bit.

        A tied block (even k) decodes to 0; no point within k/2 of an image has one. Like ``encode``, it reads
        its mask unchecked (bits beyond the target's are ignored, a bool reads as 0 or 1); ``apply`` checks.
        """
        k, half, block = self.k, self.k // 2, (1 << self.k) - 1
        source = 0
        for shift in range(self.target_n - k, -1, -k):
            source = (source << 1) | (((mask >> shift) & block).bit_count() > half)
        return source

    def block_coordinates(self, i: int) -> range:
        """Target coordinates carrying source coordinate i."""
        return range((i - 1) * self.k + 1, i * self.k + 1)

