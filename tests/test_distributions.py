import math
import random
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import event, example, given, settings, strategies as st

from cubes import cube_points
from lmqlab.concepts import DnfFormula, PolyConcept, SparsePoly, Term, random_dfa, random_dnf, random_tree
from lmqlab.cube import (
    CubePoint, DimensionMismatch, ReplicateMap, exact_rational, lane_bits, lane_columns, require_masks, restrict,
)
from lmqlab.distributions import (
    FiniteSupport,
    LabeledSample,
    ProductDist,
    UniformCube,
    exact_loss,
    label_masks,
    mc_loss,
    pushforward,
    sample,
    sample_indices,
    support_weights,
    _DRAW_BLOCK,
)


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def test_sample_zero_draws():
    assert sample(UniformCube(3), 0, seed=1) == []


def test_point_mass_sampling():
    dist = FiniteSupport(2, ((P("+-").mask, Fraction(1)),))
    assert sample(dist, 5, seed=9) == [P("+-").mask] * 5


# The first 16 masks of each distribution type, recorded when draws still
# returned points: the RNG calls, and so every seeded sample, must not drift.
PINNED_STREAMS = [
    (UniformCube(8), [120, 46, 186, 148, 77, 51, 227, 185, 104, 193, 183, 194, 67, 136, 62, 162]),
    (
        ProductDist(4, (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1, 10))),
        [2, 2, 6, 6, 2, 2, 14, 6, 6, 14, 14, 4, 6, 10, 2, 0],
    ),
    (
        FiniteSupport(
            3, ((P("--+").mask, Fraction(1, 3)), (P("++-").mask, Fraction(1, 6)), (P("+--").mask, Fraction(1, 2)))
        ),
        [4, 4, 1, 6, 4, 4, 1, 1, 4, 4, 4, 4, 6, 1, 4, 4],
    ),
]


@pytest.mark.parametrize("dist, masks", PINNED_STREAMS, ids=lambda v: type(v).__name__)
def test_seeded_sample_stream_is_pinned(dist, masks):
    assert sample(dist, 16, seed=2024) == masks


def _reference_draws(dist, m: int, rng: random.Random) -> list[int]:
    """The per-draw streams bulk draws must reproduce: one ``getrandbits(n)`` per uniform draw, one ``random()``
    per coordinate of a product draw, and for a finite support the bisection built from the support alone."""
    if isinstance(dist, UniformCube):
        return [rng.getrandbits(dist.n) for _ in range(m)]
    if isinstance(dist, ProductDist):
        n = dist.n
        return [sum((rng.random() < p) << n - 1 - j for j, p in enumerate(dist.plus_probs)) for _ in range(m)]
    cum = list(accumulate(float(prob) for _, prob in dist.support()))
    # The last mask twice: a product that rounds up to the total bisects past the end.
    masks = [x for x, _ in dist.support()] + [dist.entries[-1][0]]
    return [masks[bisect_right(cum, rng.random() * cum[-1])] for _ in range(m)]


@st.composite
def finite_supports(draw, n_max=6):
    """Random supports with rational masses such as 1/3 and 1/18, and one-point supports."""
    n = draw(st.integers(1, n_max))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(masks), max_size=len(masks)))
    total = sum(weights)
    return FiniteSupport(n, tuple((m, Fraction(w, total)) for m, w in zip(masks, weights)))


DRAW_COUNTS = [0, 1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 3 * _DRAW_BLOCK + 7]


def _assert_stream_identical(dist, m: int, seed: int) -> None:
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert dist.draws(rng, m) == _reference_draws(dist, m, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    assert sample(dist, m, seed) == _reference_draws(dist, m, random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(dist=finite_supports(), m=st.sampled_from(DRAW_COUNTS), seed=st.integers(0, 2**64))
def test_finite_support_draws_match_per_draw_reference(dist, m, seed):
    _assert_stream_identical(dist, m, seed)


@pytest.mark.parametrize("m", DRAW_COUNTS)
@pytest.mark.parametrize("n", range(1, 9))
def test_doubled_uniform_draws_match_per_draw_reference(n, m):
    _assert_stream_identical(pushforward(UniformCube(n), ReplicateMap(n, 2)), m, seed=1000 * n + m)


@pytest.mark.parametrize("m", DRAW_COUNTS)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 31, 32, 33, 64])
def test_uniform_draws_match_per_draw_reference(n, m):
    # Up to 32 bits a block of words is shifted and masked at once; 33 and 64 keep the per-draw loop.
    _assert_stream_identical(UniformCube(n), m, seed=1000 * n + m)


@pytest.mark.parametrize("m", [0, 1, 7, 100])
def test_product_draws_match_per_draw_reference(m):
    _assert_stream_identical(PINNED_STREAMS[1][0], m, seed=m)


SPLIT_DISTS = [
    pytest.param(UniformCube(5), id="uniform-5"),
    pytest.param(UniformCube(28), id="uniform-28"),
    pytest.param(UniformCube(40), id="uniform-40"),
    pytest.param(PINNED_STREAMS[1][0], id="product"),
    pytest.param(PINNED_STREAMS[2][0], id="finite"),
]


@pytest.mark.parametrize(
    "a, b", [(1, _DRAW_BLOCK), (_DRAW_BLOCK - 1, 2), (3000, 3000), (_DRAW_BLOCK, _DRAW_BLOCK + 1)]
)
@pytest.mark.parametrize("dist", SPLIT_DISTS)
def test_two_draws_calls_give_the_stream_of_one(dist, a, b):
    """``mc_loss`` draws a block per call, so a + b draws in two calls must be the a + b of one call."""
    rng, whole = random.Random(a + 2 * b), random.Random(a + 2 * b)
    assert dist.draws(rng, a) + dist.draws(rng, b) == dist.draws(whole, a + b)
    assert rng.getstate() == whole.getstate()


@pytest.mark.parametrize("m", DRAW_COUNTS)
def test_one_point_and_uniform_draws_match_per_draw_reference(m):
    _assert_stream_identical(FiniteSupport(3, ((P("+-+").mask, Fraction(1)),)), m, seed=m)
    _assert_stream_identical(UniformCube(40), m, seed=m)


def test_draws_take_the_ambiguous_slots_path():
    """Masses 1/3 and 1/18 leave top bytes whose draws only the per-draw expression resolves."""
    masses = (Fraction(1, 3), Fraction(1, 18), Fraction(11, 18))
    dist = FiniteSupport(2, tuple(enumerate(masses)))
    # Top byte t holds the 53-bit random() values t << 45 to (t + 1 << 45) - 1: here its two ends pick apart.
    ambiguous = [t for t in range(256) if dist._pick(t << 45) != dist._pick((t + 1 << 45) - 1)]
    assert ambiguous
    # Seeds whose first draw lands in an ambiguous top byte: the top byte of the first word picks it.
    seeds = [s for s in range(20_000) if random.Random(s).getrandbits(32) >> 24 in ambiguous]
    assert seeds
    for seed in seeds:
        _assert_stream_identical(dist, 3, seed)


@pytest.mark.parametrize("seed", range(8))
def test_draw_on_a_mass_boundary_reads_both_words(seed):
    """A boundary exactly at the first random() value: its last bits come from the second word."""
    value = int(random.Random(seed).random() * 2**53)
    for cut, first in ((value, 1), (value + 1, 0)):
        p = Fraction(cut, 2**53)
        dist = FiniteSupport(1, ((0, p), (1, 1 - p)))
        assert dist._top == b""  # the bisection path
        assert sample(dist, 1, seed) == [first]
        _assert_stream_identical(dist, 5, seed)


def test_sampling_deterministic_given_seed():
    d = UniformCube(8)
    assert sample(d, 100, seed=4) == sample(d, 100, seed=4)
    assert sample(d, 100, seed=4) != sample(d, 100, seed=5)


def test_uniform_empirical_frequencies_in_band():
    masks = sample(UniformCube(10), 100_000, seed=2)
    for j in range(1, 11):
        freq = sum((m >> (10 - j)) & 1 for m in masks) / len(masks)
        assert 0.49 <= freq <= 0.51


def test_product_distribution_bias():
    dist = ProductDist(2, (Fraction(9, 10), Fraction(1, 10)))
    masks = sample(dist, 20_000, seed=7)
    f1 = sum((m >> 1) & 1 for m in masks) / len(masks)
    f2 = sum(m & 1 for m in masks) / len(masks)
    assert abs(f1 - 0.9) < 0.02 and abs(f2 - 0.1) < 0.02


class _Ticks:
    """A generator stand-in whose ``random()`` returns k / 2**53 for each listed k in turn."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def random(self):
        return next(self.ticks) / 2**53


def _fraction_draws(dist, rng, m):
    """The draw loop the float thresholds replace: each coordinate's ``random()`` compared with its Fraction."""
    out = []
    for _ in range(m):
        mask = 0
        for p in dist.plus_probs:
            mask = (mask << 1) | (rng.random() < p)
        out.append(mask)
    return out


def test_product_draws_match_the_fraction_comparison():
    probs = (0, 1, Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1, 2**53), Fraction(3, 2**53),
             1 - Fraction(1, 2**53))
    dist = ProductDist(len(probs), probs)
    # Every coordinate reads each random() value next to every threshold, where p * 2**53 is an integer and not.
    edges = sorted({min(max(math.floor(p * 2**53) + d, 0), 2**53 - 1) for p in probs for d in (-1, 0, 1)})
    ticks = [k for k in edges for _ in probs]
    assert dist.draws(_Ticks(ticks), len(edges)) == _fraction_draws(dist, _Ticks(ticks), len(edges))
    for seed in range(3):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert dist.draws(ours, 5000) == _fraction_draws(dist, theirs, 5000)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_product_and_uniform_reject_a_dimension_below_one(n):
    for make in (lambda: ProductDist(n, ()), lambda: UniformCube(n)):
        with pytest.raises(ValueError, match=f"^dimension must be a positive integer, got {n}$"):
            make()


# A mask that is not an int (a bool or a float equal to one included) is refused, so every draw is an int:
# draw_training_set relies on that when it skips LabeledSample's check.
@pytest.mark.parametrize("mask", [-1, 4, 1.0, True, False, 2.5, Fraction(1)])
def test_finite_support_rejects_a_mask_out_of_range(mask):
    with pytest.raises(DimensionMismatch, match=f"^support mask {re.escape(repr(mask))} out of range for dimension 2$"):
        FiniteSupport(2, ((0, Fraction(1, 2)), (mask, Fraction(1, 2))))


@pytest.mark.parametrize("n", [0, -1])
def test_finite_support_rejects_a_dimension_below_one(n):
    with pytest.raises(ValueError, match=f"^dimension must be a positive integer, got {n}$"):
        FiniteSupport(n, ((0, Fraction(1)),))


def test_product_support_masses():
    dist = ProductDist(2, (Fraction(1, 2), Fraction(1, 4)))
    masses = {CubePoint(2, x).to_string(): prob for x, prob in dist.support()}
    assert masses == {
        "--": Fraction(3, 8),
        "-+": Fraction(1, 8),
        "+-": Fraction(3, 8),
        "++": Fraction(1, 8),
    }


def test_finite_support_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteSupport(2, ((P("++").mask, Fraction(1, 2)),))
    with pytest.raises(ValueError, match=r"^negative probability -1 at \+\+$"):
        FiniteSupport(2, ((P("++").mask, Fraction(-1)), (P("--").mask, Fraction(2))))


def test_finite_support_merges_duplicates():
    dist = FiniteSupport(2, ((P("++").mask, Fraction(1, 2)), (P("++").mask, Fraction(1, 2))))
    assert dist.entries == ((P("++").mask, Fraction(1)),)


def _fraction_sum_support(n, entries):
    """The construction ``FiniteSupport`` replaced: each entry checked in order (mask, then mass), masses merged and
    summed as ``Fraction``s, the weights over the lcm, ``_cum`` their running sums, and ``_top`` by 512 probes of
    the float bisection of the masses' float sums. Returns (entries, _cum, _top, (masks, weights, denominator)), or
    (type, message) of the error it raises."""
    try:
        merged = {}
        for mask, prob in entries:
            require_masks("support mask", (mask,), n)
            if (p := exact_rational(prob, "probability")) < 0:
                raise ValueError(f"negative probability {p} at {CubePoint(n, mask).to_string()}")
            merged[mask] = merged.get(mask, Fraction(0)) + p
        total = sum(merged.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")
    except (ValueError, DimensionMismatch) as exc:
        return type(exc), str(exc)
    canonical = tuple((mask, merged[mask]) for mask in sorted(merged) if merged[mask])
    denominator = math.lcm(*(p.denominator for _, p in canonical))
    weights = [p.numerator * (denominator // p.denominator) for _, p in canonical]
    cum = tuple(accumulate(weights))
    return canonical, cum, _probed_top(canonical), ([mask for mask, _ in canonical], weights, denominator)


def _probed_top(canonical):
    """The top-byte table as the float version built it: a float bisection of the masses' float sums at both ends of
    each top byte t's values, t << 45 and (t + 1 << 45) - 1 over 2**53, kept only if the two agree for every t."""
    cum = tuple(accumulate(float(prob) for _, prob in canonical))

    def pick(value):
        return bisect_right(cum, value * 2**-53 * cum[-1], 0, len(cum) - 1)

    top = bytes(pick(t << 45) for t in range(256)) if len(canonical) <= 256 else b""
    exact = all(pick((t + 1 << 45) - 1) == entry for t, entry in enumerate(top))
    return top if exact else b""


def _integer_form(dist):
    """A ``FiniteSupport`` in ``_fraction_sum_support``'s form."""
    masks, weights, denominator = support_weights(dist)
    return dist.entries, dist._cum, dist._top, (list(masks), list(weights), denominator)


def _integer_support(n, entries):
    """``FiniteSupport(n, entries)`` in ``_fraction_sum_support``'s form."""
    try:
        return _integer_form(FiniteSupport(n, entries))
    except (ValueError, DimensionMismatch) as exc:
        return type(exc), str(exc)


_BAD_MASKS = [-1, 1.0, True, 2.5, Fraction(1), "0", None]
_BAD_MASSES = [Fraction(-1, 3), -2, -0.5, float("nan"), float("inf"), True, "1/2", None]


@st.composite
def support_entries(draw):
    """(n, entries): masses such as 1/3 and 7/51, duplicate masks, zero masses and some floats and ints; often a
    sum other than 1, and sometimes one or two bad masks or masses at any entry."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=30))
    weights = draw(st.lists(st.integers(0, 20), min_size=len(masks), max_size=len(masks)))
    scale = draw(st.sampled_from([Fraction(1)] * 4 + [Fraction(2, 3), Fraction(7, 5)]))
    probs = [Fraction(w, sum(weights) or 1) * scale for w in weights]
    entries = [(mask, float(p) if draw(st.integers(0, 5)) == 0 else p) for mask, p in zip(masks, probs)]
    if draw(st.booleans()) and entries:  # a mass of 1 as an int, the rest 0
        entries = [(entries[0][0], 1), *((mask, 0) for mask, _ in entries[1:])]
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        i = draw(st.integers(0, len(entries) - 1))
        mask, prob = entries[i]
        if draw(st.booleans()):
            entries[i] = (draw(st.sampled_from([*_BAD_MASKS, 1 << n])), prob)
        else:
            entries[i] = (mask, draw(st.sampled_from(_BAD_MASSES)))
    return n, tuple(entries)


@settings(max_examples=300, deadline=None)
@given(support_entries())
def test_finite_support_is_the_fraction_sum_construction(case):
    # Integer numerators over the lcm give every entry, running sum, weight and refusal the Fraction sums gave, and
    # the table the float version probed.
    n, entries = case
    old, new = _fraction_sum_support(n, entries), _integer_support(n, entries)
    if len(old) == 2:
        event(f"refused: {old[1].split()[0]}")
        assert new == old
        return
    event("merged" if len({mask for mask, _ in entries}) < len(entries) else "no merge")
    (entries_old, cum_old, top_old, weights_old), (entries_new, cum_new, top_new, weights_new) = old, new
    assert [(type(x), x, type(p), p) for x, p in entries_new] == [(type(x), x, type(p), p) for x, p in entries_old]
    assert cum_new == cum_old and set(map(type, cum_new)) == {int}
    assert top_new == top_old and weights_new == weights_old
    if len({mask for mask, _ in entries}) == len(entries):  # no merge: the Fraction objects given are kept
        given = {mask: prob for mask, prob in entries if type(prob) is Fraction}
        assert all(p is given[x] for x, p in entries_new if x in given)


@pytest.mark.parametrize(
    "entries, message",
    [
        (((0, Fraction(-1, 2)), (5, Fraction(3, 2))), "^negative probability -1/2 at --$"),
        (((5, Fraction(-1, 2)), (0, Fraction(3, 2))), "^support mask 5 out of range for dimension 2$"),
        (((0, Fraction(1, 2)), (1, Fraction(-1, 2)), (5, Fraction(1))), r"^negative probability -1/2 at -\+$"),
        (((4, Fraction(1, 2)), (1, "1/2")), "^support mask 4 out of range for dimension 2$"),
        (((1, "1/2"), (4, Fraction(1, 2))), "^probability must be an int, a finite float or a Fraction, got '1/2'$"),
        (((1, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 7))), "^probabilities sum to 17/21, expected"),
        ((), "^probabilities sum to 0, expected exactly 1$"),
    ],
)
def test_finite_support_refuses_the_first_bad_entry_mask_before_mass(entries, message):
    assert _fraction_sum_support(2, entries)[1] == _integer_support(2, entries)[1]
    with pytest.raises((ValueError, DimensionMismatch), match=message):
        FiniteSupport(2, entries)


_HALF_EDGE = Fraction(1, 2**60)
# Masses 1/2 + 2**-60 and 1/2 - 2**-60 are both 0.5 as floats: a float bisection puts the boundary at 1/2.
_NEAR_HALVES = [FiniteSupport(1, ((0, Fraction(1, 2) + _HALF_EDGE), (1, Fraction(1, 2) - _HALF_EDGE))),
                FiniteSupport(1, ((0, Fraction(1, 2) - _HALF_EDGE), (1, Fraction(1, 2) + _HALF_EDGE)))]


@st.composite
def pick_supports(draw):
    """Supports of 1 to 300 points: integer weights over a power of two from 2 to 2**62 (dyadic, with and without a
    top-byte table) or over their own sum, and sometimes a first mass 1/3, 7/51 or 1/2 +- 2**-60, the rest scaled."""
    near_halves = [dist.entries[0][1] for dist in _NEAR_HALVES]
    first = draw(st.none() | st.sampled_from([Fraction(1, 3), Fraction(7, 51), *near_halves]))
    count = draw(st.integers(1 + (first is not None), 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    masks = rng.sample(range(1 << 9), count)
    rest = count - (first is not None)
    if draw(st.booleans()):  # dyadic: rest positive weights summing to 2**k
        low = max(rest - 1, 1).bit_length()
        k = draw(st.integers(low, max(low, 8)) | st.integers(low, 62))  # often a table, when rest <= 256
        cuts = [0, *sorted(rng.sample(range(1, 2**k), rest - 1)), 2**k]
        masses = [Fraction(b - a, 2**k) for a, b in zip(cuts, cuts[1:])]
    else:
        weights = [rng.randint(1, 20) for _ in range(rest)]
        masses = [Fraction(w, sum(weights)) for w in weights]
    if first is not None:
        masses = [first, *(p * (1 - first) for p in masses)]
    event("256 % D == 0" if 256 % math.lcm(*(p.denominator for p in masses)) == 0 else "no table")
    return FiniteSupport(9, tuple(zip(masks, masses)))


@settings(max_examples=200, deadline=None)
@given(pick_supports())
@example(_NEAR_HALVES[0])
@example(_NEAR_HALVES[1])
def test_pick_is_exact_beside_every_entry_boundary(dist):
    # Entry i holds the random() values v / 2**53 with cum[i-1] <= v / 2**53 * D < cum[i]: probe each entry's first
    # value, ceil(cum[i-1] * 2**53 / D), and its two neighbours.
    _, weights, denominator = support_weights(dist)
    cum = [0, *accumulate(weights)]
    for c in cum[:-1]:
        start = -(-c * 2**53 // denominator)
        for value in range(max(start - 1, 0), min(start + 2, 2**53)):
            i = dist._pick(value)
            assert cum[i] * 2**53 <= value * denominator < cum[i + 1] * 2**53


@settings(max_examples=200, deadline=None)
@given(pick_supports())
@example(_NEAR_HALVES[0])
@example(_NEAR_HALVES[1])
def test_top_byte_table_exists_iff_the_denominator_divides_256(dist):
    # A top byte names one entry for every support iff each mass is a multiple of 1/256; the table is then the one
    # the float version probed.
    denominator = support_weights(dist)[2]
    assert bool(dist._top) == (256 % denominator == 0)
    if dist._top:
        assert dist._top == _probed_top(dist.entries)


@pytest.mark.parametrize("dist", _NEAR_HALVES, ids=["heavy-first", "light-first"])
def test_masses_a_float_rounds_to_one_half_get_no_table_and_exact_picks(dist):
    assert dist._top == b"" and sample_indices(dist, 1, 0) is None
    # random() = 2**52 / 2**53 is exactly 1/2: entry 0's if its mass is the heavier, else entry 1's.
    heavy = int(dist.entries[1][1] > dist.entries[0][1])
    assert [dist._pick(v) for v in (2**52 - 1, 2**52, 2**52 + 1)] == [0, heavy, 1]


def test_finite_support_reduces_merged_weights_to_the_lcm_of_the_merged_masses():
    # 1/6 + 1/3 at mask 0 merge into 1/2: the weights are over 2, not 6, as the merged masses' lcm gives.
    dist = FiniteSupport(2, ((0, Fraction(1, 6)), (3, Fraction(1, 2)), (0, Fraction(1, 3))))
    masks, weights, denominator = support_weights(dist)
    assert dist.entries == ((0, Fraction(1, 2)), (3, Fraction(1, 2))) and (list(weights), denominator) == ([1, 1], 2)


@pytest.mark.parametrize(
    "dist",
    [UniformCube(1), UniformCube(5), ProductDist(3, (Fraction(1, 3), Fraction(0), Fraction(2, 7))),
     FiniteSupport(3, ((1, Fraction(1, 3)), (6, Fraction(1, 6)), (4, Fraction(1, 2))))],
    ids=["uniform1", "uniform5", "product", "finite"],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pushforward_is_the_fraction_sum_image_with_one_fraction_per_weight(dist, k):
    phi = ReplicateMap(dist.n, k)
    image = pushforward(dist, phi)
    old = _fraction_sum_support(phi.target_n, tuple((phi.encode(mask), prob) for mask, prob in dist.support()))
    assert _integer_form(image) == old
    masses = [p for _, p in image.entries]
    assert len({id(p) for p in masses}) == len(set(masses))


def test_pushforward_doubling_on_one_variable():
    got = pushforward(UniformCube(1), ReplicateMap(1, 2))
    assert dict((CubePoint(2, x).to_string(), prob) for x, prob in got.entries) == {
        "--": Fraction(1, 2),
        "++": Fraction(1, 2),
    }


def test_pushforward_point_mass():
    phi = ReplicateMap(2, 2)
    src = FiniteSupport(2, ((P("+-").mask, Fraction(1)),))
    got = pushforward(src, phi)
    assert got.entries == ((P("++--").mask, Fraction(1)),)


def test_pushforward_uniform_two_variables():
    got = pushforward(UniformCube(2), ReplicateMap(2, 2))
    assert len(got.entries) == 4
    assert all(prob == Fraction(1, 4) for _, prob in got.entries)
    images = {ReplicateMap(2, 2).apply(x).mask for x in cube_points(2)}
    assert {x for x, _ in got.entries} == images


def test_exact_loss_trivial_and_symmetric():
    f = DnfFormula(2, (Term.of(1, 2),))
    g = DnfFormula(2, ())
    d = UniformCube(2)
    assert exact_loss(d, f, f) == 0
    assert exact_loss(d, f, g) == exact_loss(d, g, f) == Fraction(1, 4)


def test_exact_loss_caps_enumeration():
    f = DnfFormula(25, (Term.of(1),))
    with pytest.raises(ValueError, match="^enumerated cube dimension: 25 exceeds the cap of 24$"):
        exact_loss(UniformCube(25), f, f)


def _reference_support(dist):
    """Each point of positive mass in mask order, a cube distribution's mass the n-factor product at the point."""
    if isinstance(dist, FiniteSupport):
        yield from dist.entries
        return
    probs = dist.plus_probs if isinstance(dist, ProductDist) else (Fraction(1, 2),) * dist.n
    for mask in range(1 << dist.n):
        prob = Fraction(1)
        for j, p in enumerate(probs):
            prob *= p if (mask >> (dist.n - 1 - j)) & 1 else 1 - p
        if prob:
            yield mask, prob


def _reference_loss(dist, h_star, h_hat):
    """exact_loss read pointwise: one ``label`` per concept and one Fraction sum per support point."""
    loss = Fraction(0)
    for mask, prob in _reference_support(dist):
        if h_star.label(mask) != h_hat.label(mask):
            loss += prob
    return loss


@st.composite
def dnf_pairs_under_distributions(draw):
    """Two random DNFs at n <= 10 under a uniform, product (masses 0, 1/3, 1/2, 1) or non-dyadic finite support."""
    kind = draw(st.sampled_from(["uniform", "product", "finite"]))
    n, seed = draw(st.integers(1, 10)), draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    star, hat = (random_dnf(n, rng.randint(0, 4), rng.randint(1, 4), rng) for _ in range(2))
    if kind == "uniform":
        return UniformCube(n), star, hat
    if kind == "product":
        probs = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        return ProductDist(n, tuple(draw(st.lists(st.sampled_from(probs), min_size=n, max_size=n)))), star, hat
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(masks), max_size=len(masks)))
    return FiniteSupport(n, tuple((m, Fraction(w, sum(weights))) for m, w in zip(masks, weights))), star, hat


@settings(max_examples=150, deadline=None)
@given(dnf_pairs_under_distributions())
def test_exact_loss_and_support_match_pointwise_references(case):
    dist, star, hat = case
    assert exact_loss(dist, star, hat) == _reference_loss(dist, star, hat)
    assert list(dist.support()) == list(_reference_support(dist))
    masks, weights, denominator = support_weights(dist)
    weights = list(weights)
    assert list(masks) == sorted(masks) and len(weights) == len(masks) and min(weights) > 0
    assert sum(weights) == denominator


@pytest.mark.parametrize(
    "dist, denominator", [(UniformCube(12), 1 << 12), (ProductDist(12, (Fraction(1, 3),) * 12), 3**12)],
    ids=["uniform", "product"],
)
def test_cube_weights_are_read_lazily(dist, denominator):
    masks, weights, got = support_weights(dist)
    assert masks == range(1 << 12) and iter(weights) is weights and got == denominator


def test_exact_loss_of_a_finite_support_has_no_cap():
    # 2^30 points, beyond ENUMERATION_CAP; the loss reads only the five entries. x1 OR (NOT x2 AND x30) and x30
    # differ at +---...- and at ++...+-, of masses 1/5 and 1/11.
    masses = (Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), Fraction(1, 11))
    masks = (0, 1, 1 << 29, (1 << 30) - 2, (1 << 30) - 1)
    dist = FiniteSupport(30, tuple(zip(masks, (*masses, 1 - sum(masses)))))
    star, hat = DnfFormula(30, (Term.of(1), Term.of(-2, 30))), DnfFormula(30, (Term.of(30),))
    assert exact_loss(dist, star, hat) == _reference_loss(dist, star, hat) == Fraction(16, 55)


# x1/2 + x2/2 is +1 at ++, -1 at -- and 0, off ±1, wherever x1 and x2 differ.
_HALF_SUM = PolyConcept(SparsePoly(3, {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)}))


@pytest.mark.parametrize(
    "dist, first",
    [
        (UniformCube(3), "-+-"),
        # -+-, the cube's first point off ±1, has mass 0 here and is not labelled.
        (ProductDist(3, (Fraction(1), Fraction(0), Fraction(1, 3))), "+--"),
        (FiniteSupport(3, ((0, Fraction(1, 2)), (0b101, Fraction(1, 4)), (0b110, Fraction(1, 4)))), "+-+"),
    ],
    ids=["uniform", "product", "finite"],
)
def test_exact_loss_names_the_first_support_point_a_concept_cannot_label(dist, first):
    other = DnfFormula(3, (Term.of(1),))
    for h_star, h_hat in ((_HALF_SUM, other), (other, _HALF_SUM)):
        with pytest.raises(ValueError) as got:
            exact_loss(dist, h_star, h_hat)
        with pytest.raises(ValueError) as reference:
            _reference_loss(dist, h_star, h_hat)
        assert got.type is reference.type is ValueError
        assert str(got.value) == str(reference.value) == f"polynomial value 0 at {first} is not in {{-1,+1}}"


def test_exact_loss_labels_no_point_of_mass_zero():
    # Off ±1 only where x1 and x2 differ, all of mass 0 when both are +1 surely.
    dist, other = ProductDist(3, (Fraction(1), Fraction(1), Fraction(1, 3))), DnfFormula(3, (Term.of(3),))
    assert exact_loss(dist, _HALF_SUM, other) == _reference_loss(dist, _HALF_SUM, other) == Fraction(2, 3)


def test_label_masks_lives_in_distributions_and_still_resolves_from_oracle_and_harness():
    from lmqlab import harness, oracle

    assert oracle.label_masks is harness.label_masks is label_masks


def test_mc_loss_tracks_exact_loss():
    f = DnfFormula(3, (Term.of(1), Term.of(2)))
    g = DnfFormula(3, ())
    d = UniformCube(3)
    exact = exact_loss(d, f, g)
    m = 100_000
    estimate = mc_loss(d, f, g, m, seed=11)
    se = math.sqrt(float(exact) * (1 - float(exact)) / m)
    assert abs(float(estimate) - float(exact)) < max(5 * se, 0.01)


@pytest.mark.parametrize(
    "dist_n, star_n, hat_n", [(4, 3, 3), (3, 4, 3), (3, 3, 4)], ids=["distribution", "h_star", "h_hat"]
)
def test_mc_loss_refuses_mismatched_dimensions(dist_n, star_n, hat_n):
    with pytest.raises(DimensionMismatch):
        mc_loss(UniformCube(dist_n), DnfFormula(star_n, (Term.of(1),)), DnfFormula(hat_n, ()), 100, seed=0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(21, 32), seed=st.integers(0, 2**32), m=st.integers(1, 500))
def test_mc_loss_matches_pointwise_reference(n, seed, m):
    rng = random.Random(seed)
    f, g = random_dnf(n, 3, 3, rng), random_dnf(n, 3, 3, rng)
    dist = UniformCube(n)
    points = [CubePoint(n, mask) for mask in sample(dist, m, seed)]
    assert mc_loss(dist, f, g, m, seed) == Fraction(sum(f.evaluate(x) != g.evaluate(x) for x in points), m)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(24, 32),
    seed=st.integers(0, 2**32),
    m=st.integers(1, 2000),
    kinds=st.tuples(*[st.sampled_from(["random", "empty", "empty-term"])] * 2),
    finite=st.booleans(),
)
def test_mc_loss_matches_per_draw_reference(n, seed, m, kinds, finite):
    """Projected counting against labels at every draw, drawn by the per-draw reference."""
    rng = random.Random(seed)

    def formula(kind):
        if kind == "empty":
            return DnfFormula(n, ())
        terms = random_dnf(n, 4, 3, rng).terms
        return DnfFormula(n, terms + (Term.of(),)) if kind == "empty-term" else DnfFormula(n, terms)

    f, g = map(formula, kinds)
    if finite:
        masks = rng.sample(range(1 << n), 12)
        dist = FiniteSupport(n, tuple((x, Fraction(i + 1, 78)) for i, x in enumerate(masks)))
    else:
        dist = UniformCube(n)
    points = [CubePoint(n, mask) for mask in _reference_draws(dist, m, random.Random(seed))]
    assert mc_loss(dist, f, g, m, seed) == Fraction(sum(f.evaluate(x) != g.evaluate(x) for x in points), m)



@pytest.mark.parametrize("m", [0, 1, _DRAW_BLOCK - 1, _DRAW_BLOCK + 1])
@pytest.mark.parametrize("n", range(1, 33))
def test_packed_uniform_blocks_label_as_the_lane_columns_of_their_draws(n, m):
    """Each packed block of ``UniformCube._lanes`` (4-byte lanes), split into its columns, labels lane for lane as
    ``lane_columns`` of the same block's ``draws`` (lanes of 1, 2 or 4 bytes), and leaves the generator where
    ``draws`` does."""
    rng = random.Random(7919 * n + m)
    dist, concepts = UniformCube(n), (random_dfa(n, 4, rng), random_dnf(n, 3, 3, rng))
    packed, drawn, reads = random.Random(m), random.Random(m), concepts[0].reads | concepts[1].reads
    blocks = list(dist._lanes(packed, m))
    assert len(blocks) == math.ceil(m / _DRAW_BLOCK)
    for start, (k, lanes) in zip(range(0, m, _DRAW_BLOCK), blocks):
        assert k == min(_DRAW_BLOCK, m - start) and lanes >> 32 * k == 0
        full = int.from_bytes((1).to_bytes(4, "little") * k, "little")
        columns = [lanes >> i & full if reads >> i & 1 else 0 for i in range(n)]
        ref_columns, ref_full, width = lane_columns(dist.draws(drawn, k), n, reads)
        assert ref_full.bit_count() == k and [c.bit_count() for c in columns] == [c.bit_count() for c in ref_columns]
        assert lanes & ~(full * ((1 << n) - 1)) == 0  # each lane holds n bits only
        for concept in concepts:
            got = lane_bits(concept.label_columns(columns, full), k, 4)
            assert got == lane_bits(concept.label_columns(ref_columns, ref_full), k, width)
    assert packed.getstate() == drawn.getstate()


MC_COUNTS = [_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 3 * _DRAW_BLOCK + 7]
_rng = random.Random(25)
LOSS_DISTS = [
    *(pytest.param(UniformCube(n), id=f"uniform-{n}") for n in (21, 32, 33, 40)),
    pytest.param(
        FiniteSupport(36, tuple((x, Fraction(i + 1, 78)) for i, x in enumerate(_rng.sample(range(1 << 36), 12)))),
        id="finite",
    ),
    # Few coordinates: each of a product draw's coordinates compares a float with a Fraction.
    pytest.param(ProductDist(6, tuple(Fraction(_rng.randint(1, 9), 10) for _ in range(6))), id="product"),
]
LOSS_CLASSES = {
    "dnf": lambda n, rng: random_dnf(n, 4, 3, rng),
    "dfa": lambda n, rng: random_dfa(n, 4, rng),
    "tree": lambda n, rng: random_tree(n, 10, rng),
}


@pytest.mark.parametrize("pair", [("dnf", "dfa"), ("dfa", "tree"), ("tree", "dnf")], ids="-".join)
@pytest.mark.parametrize("dist", LOSS_DISTS)
def test_mc_loss_across_blocks_matches_labels_at_every_draw(dist, pair):
    """Block edges, one block and several, for concepts of two classes, against labels at each reference draw."""
    rng = random.Random(f"{dist}-{pair}")
    h_star, h_hat = (LOSS_CLASSES[kind](dist.n, rng) for kind in pair)
    seed = rng.getrandbits(32)
    draws = _reference_draws(dist, max(MC_COUNTS), random.Random(seed))
    wrong = list(accumulate(h_star.label(x) != h_hat.label(x) for x in draws))
    assert 0 < wrong[-1] < len(draws)
    for m in MC_COUNTS:
        assert mc_loss(dist, h_star, h_hat, m, seed) == Fraction(wrong[m - 1], m)


def _written_otherwise(f: DnfFormula, kind: str, rng: random.Random) -> DnfFormula:
    """A DNF labelling every point as f does but written otherwise (its terms reordered, one term twice, or a term
    t and t AND a literal it lacks), or for "other" a fresh random DNF."""
    n, terms = f.n, list(f.terms)
    if kind == "reordered":
        rng.shuffle(terms)
    elif kind == "duplicated":
        terms.insert(rng.randrange(len(terms) + 1), rng.choice(f.terms))
    elif kind == "absorbed":
        t = rng.choice(f.terms)
        j = rng.choice([j for j in range(1, n + 1) if j not in t.variables])
        wider = Term(t.positives | {j}, t.negatives) if rng.random() < 0.5 else Term(t.positives, t.negatives | {j})
        terms.insert(rng.randrange(len(terms) + 1), wider)
    else:
        terms = list(random_dnf(n, rng.randint(0, 4), 4, rng).terms)
    return DnfFormula(n, tuple(terms))


def _recorded_generators(call):
    """``call()`` and every generator ``distributions`` built during it, in order, each with its seed as ``given``."""
    built = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            self.given = seed
            built.append(self)
            super().__init__(seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("lmqlab.distributions.random.Random", Recording)
        return call(), built


def _recorded_mc_loss(dist, f, g, m, seed):
    """``mc_loss(dist, f, g, m, seed)`` and the seeds of the generators it built, in order."""
    loss, built = _recorded_generators(lambda: mc_loss(dist, f, g, m, seed))
    return loss, [rng.given for rng in built]


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(5, 20),
    seed=st.integers(0, 2**32),
    m=st.integers(1, 4200),
    kind=st.sampled_from(["reordered", "duplicated", "absorbed", "other"]),
    finite=st.booleans(),
)
def test_mc_loss_decided_on_the_read_coordinates_matches_the_per_draw_reference(n, seed, m, kind, finite):
    """Pairs equal on their read coordinates but written otherwise, and pairs that differ, with 2^r on both sides
    of m: the loss is the disagreement frequency at the reference draws, and a generator is built iff it draws."""
    rng = random.Random(seed)
    f = random_dnf(n, rng.randint(1, 4), 4, rng)
    g = _written_otherwise(f, kind, rng)
    reads = f.reads | g.reads
    differ = restrict(f, reads) != restrict(g, reads)
    assert kind == "other" or not differ
    if finite:
        masks = rng.sample(range(1 << n), 12)
        dist = FiniteSupport(n, tuple((x, Fraction(i + 1, 78)) for i, x in enumerate(masks)))
    else:
        dist = UniformCube(n)
    points = [CubePoint(n, mask) for mask in _reference_draws(dist, m, random.Random(seed))]
    loss, built = _recorded_mc_loss(dist, f, g, m, seed)
    assert loss == Fraction(sum(f.evaluate(x) != g.evaluate(x) for x in points), m)
    assert built == ([seed] if differ or 1 << reads.bit_count() > m else [])


# x1 AND x2 over 8 variables (r = 2), and the same concept with x1 AND x2 AND x8 written beside it (r = 3).
_X12 = DnfFormula(8, (Term.of(1, 2),))
_X12_ABSORBING = DnfFormula(8, (Term.of(1, 2), Term.of(1, 2, 8)))


@pytest.mark.parametrize(
    "f, g, m, draws",
    [
        (_X12, _X12, 4, False),
        (_X12, _X12, 3, True),  # 2^2 > 3: the table would cost more than the draws
        (_X12, _X12_ABSORBING, 8, False),
        (_X12, _X12_ABSORBING, 7, True),
        (_X12, DnfFormula(8, (Term.of(1, 2, 8),)), 100, True),  # the tables differ where x1, x2 hold and x8 does not
        (DnfFormula(8, ()), DnfFormula(8, ()), 1, False),  # r = 0: one point
        (DnfFormula(8, ()), DnfFormula(8, (Term.of(),)), 1, True),
    ],
    ids=["equal", "equal-m-below", "absorbed", "absorbed-m-below", "differ", "empty", "empty-vs-true"],
)
def test_mc_loss_builds_its_loss_stream_iff_the_tables_differ_or_cost_more_than_the_draws(f, g, m, draws):
    loss, built = _recorded_mc_loss(UniformCube(8), f, g, m, 99)
    assert built == ([99] if draws else [])
    points = _reference_draws(UniformCube(8), m, random.Random(99))
    assert loss == Fraction(sum(f.label(x) != g.label(x) for x in points), m)


# _HALF_SUM cannot label the points where x1 and x2 differ, so its table raises and the draws decide.
def _lane_edge_dist(kind: str, n: int, rng: random.Random):
    if kind == "uniform":
        return UniformCube(n)
    if kind == "finite":  # 12 random masks, merged where they repeat (at n = 1 the two points)
        return FiniteSupport(n, tuple((rng.getrandbits(n), Fraction(i + 1, 78)) for i in range(12)))
    return ProductDist(n, tuple(Fraction(rng.randint(1, 9), 10) for _ in range(n)))


@pytest.mark.parametrize("kind", ["uniform", "finite", "product"])
@pytest.mark.parametrize("m", [1, _DRAW_BLOCK - 1, _DRAW_BLOCK + 1])
@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 64, 65])
def test_mc_loss_draws_label_as_the_per_draw_reference_at_every_lane_width(n, m, kind):
    """At every lane-width edge (1, 2, 4, 8 bytes and past them) and across a block edge, a pair whose tables differ
    is drawn: its loss is the disagreement frequency at the per-draw reference's draws, and its one generator ends
    in the state ``sample(dist, m, seed)`` leaves."""
    rng = random.Random(f"{n}-{m}-{kind}")
    dist = _lane_edge_dist(kind, n, rng)
    while True:  # a pair mc_loss cannot decide on its read coordinates' tables
        h_star, h_hat = random_dnf(n, 3, 3, rng), random_dfa(n, 4, rng)
        reads = h_star.reads | h_hat.reads
        if 1 << reads.bit_count() > m or restrict(h_star, reads) != restrict(h_hat, reads):
            break
    seed = rng.getrandbits(32)
    draws = _reference_draws(dist, m, random.Random(seed))
    loss, built = _recorded_generators(lambda: mc_loss(dist, h_star, h_hat, m, seed))
    assert loss == Fraction(sum(h_star.label(x) != h_hat.label(x) for x in draws), m)
    drawn, sampled = _recorded_generators(lambda: sample(dist, m, seed))
    assert drawn == draws and len(built) == len(sampled) == 1
    assert built[0].getstate() == sampled[0].getstate()


def test_mc_loss_raises_the_error_of_the_first_draw_a_concept_cannot_label():
    with pytest.raises(ValueError, match=r"^polynomial value 0 at .* is not in \{-1,\+1\}$"):
        _recorded_mc_loss(UniformCube(3), _HALF_SUM, DnfFormula(3, (Term.of(3),)), 64, 5)


def test_mc_loss_draws_past_a_table_that_raises_on_points_of_mass_zero():
    dist, other = ProductDist(3, (Fraction(1), Fraction(1), Fraction(1, 3))), DnfFormula(3, (Term.of(3),))
    loss, built = _recorded_mc_loss(dist, _HALF_SUM, other, 64, 5)
    points = _reference_draws(dist, 64, random.Random(5))
    assert built == [5] and loss == Fraction(sum(_HALF_SUM.label(x) != other.label(x) for x in points), 64)


def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(2, (P("++").mask,), (2,))
    s = LabeledSample(2, (P("++").mask, P("--").mask), (1, 0))
    assert len(s) == 2
    assert [x for x, y in s if y == 1] == [P("++")]


@pytest.mark.parametrize(
    "n, masks, labels, message",
    [
        (0, (), (), "dimension"),
        (-2, (0,), (1,), "dimension"),
        (2, (x for x in [1]), b"\x01", r"^sample masks must be a sequence \(ordered, with a length\), got generator$"),
        (2, (1,), iter(b"\x01"), r"^sample labels must be a sequence \(ordered, with a length\), got bytes_iterator$"),
        (2, 3, (1,), r"^sample masks must be a sequence \(ordered, with a length\), got int$"),
        (2, (0, 1), (1,), "2 masks but 1 labels"),
        (2, (0,), (1, 0), "1 masks but 2 labels"),
        (2, (1, -1), (0, 0), "^sample mask -1 out of range for dimension 2$"),
        (2, (4, 0), (0, 0), "^sample mask 4 out of range for dimension 2$"),
        (2, (3, 9), (0, 0), "^sample mask 9 out of range for dimension 2$"),
        (2, (0, 1), (1, 2), "labels must be 0 or 1"),
        (2, (0, 1), (-1, 0), "labels must be 0 or 1"),
        (2, (0,), ("1",), "labels must be 0 or 1"),
        # An int, never a bool or a float: require_count's rule, even for values equal to an int.
        (2, (1.5, True), (1, 1.0), "^sample mask 1.5 out of range for dimension 2$"),
        (2, (1.0, 0), (1, 0), "^sample mask 1.0 out of range for dimension 2$"),
        (2, (True, 0), (1, 0), "^sample mask True out of range for dimension 2$"),
        (2, (0, 3, False), (1, 0, 0), "^sample mask False out of range for dimension 2$"),
        (2, (0, 1), (1, 1.0), "labels must be 0 or 1"),
        (2, (0, 1), (0.0, 1), "labels must be 0 or 1"),
        (2, (0, 1), (True, 0), "labels must be 0 or 1"),
        (2, (0, 1), (1, False), "labels must be 0 or 1"),
        (2, (0,), (Fraction(1),), "labels must be 0 or 1"),
    ],
)
def test_labeled_sample_rejects_bad_input(n, masks, labels, message):
    with pytest.raises(ValueError, match=message):
        LabeledSample(n, masks, labels)


@pytest.mark.parametrize(
    "masks, labels, message",
    [
        ({5, 2, 7}, (1, 0, 0), "sample masks {} set"),  # stored as (2, 5, 7) with labels (1, 0, 0) before
        (frozenset({5, 2, 7}), (1, 0, 0), "sample masks {} frozenset"),
        ({5: 1, 2: 0, 7: 0}, (1, 0, 0), "sample masks {} dict"),
        ({5: 1, 2: 0, 7: 0}.keys(), (1, 0, 0), "sample masks {} dict_keys"),
        ((5, 2, 7), {5: 1, 2: 0, 7: 0}.values(), "sample labels {} dict_values"),
        ((5, 2), {0, 1}, "sample labels {} set"),
    ],
    ids=["set", "frozenset", "dict", "dict-keys", "dict-values", "label-set"],
)
def test_labeled_sample_refuses_unordered_masks_or_labels(masks, labels, message):
    # A set or a dict has a length but no order of its own, so its masks could not keep their labels.
    with pytest.raises(ValueError) as exc:
        LabeledSample(3, masks, labels)
    ordered = "must be a sequence (ordered, with a length), got"
    assert exc.type is ValueError and str(exc.value) == message.format(ordered)


def test_labeled_sample_iterates_point_label_pairs():
    s = LabeledSample(3, (5, 5, 0), (1, 1, 0))
    pairs = iter(s)
    assert next(pairs) == (CubePoint(3, 5), 1)
    assert list(pairs) == [(CubePoint(3, 5), 1), (CubePoint(3, 0), 0)]
    assert list(LabeledSample(3, (), ())) == [] and len(LabeledSample(3, (), ())) == 0
