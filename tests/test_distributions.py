import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lmqlab.concepts import DnfFormula, Term, random_dnf
from lmqlab.cube import CubePoint, DimensionMismatch, ReplicateMap, enumerate_cube
from lmqlab.distributions import (
    FiniteSupport,
    LabeledSample,
    ProductDist,
    UniformCube,
    exact_loss,
    mc_loss,
    pushforward,
    sample,
)


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def test_sample_zero_draws():
    assert sample(UniformCube(3), 0, seed=1) == []


def test_point_mass_sampling():
    dist = FiniteSupport(2, ((P("+-"), Fraction(1)),))
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
            3, ((P("--+"), Fraction(1, 3)), (P("++-"), Fraction(1, 6)), (P("+--"), Fraction(1, 2)))
        ),
        [4, 4, 1, 6, 4, 4, 1, 1, 4, 4, 4, 4, 6, 1, 4, 4],
    ),
]


@pytest.mark.parametrize("dist, masks", PINNED_STREAMS, ids=lambda v: type(v).__name__)
def test_seeded_sample_stream_is_pinned(dist, masks):
    assert sample(dist, 16, seed=2024) == masks


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


def test_product_support_masses():
    dist = ProductDist(2, (Fraction(1, 2), Fraction(1, 4)))
    masses = {p.to_string(): prob for p, prob in dist.support()}
    assert masses == {
        "--": Fraction(3, 8),
        "-+": Fraction(1, 8),
        "+-": Fraction(3, 8),
        "++": Fraction(1, 8),
    }


def test_finite_support_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteSupport(2, ((P("++"), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        FiniteSupport(2, ((P("++"), Fraction(-1)), (P("--"), Fraction(2))))


def test_finite_support_merges_duplicates():
    dist = FiniteSupport(2, ((P("++"), Fraction(1, 2)), (P("++"), Fraction(1, 2))))
    assert dist.entries == ((P("++"), Fraction(1)),)


def test_pushforward_doubling_on_one_variable():
    got = pushforward(UniformCube(1), ReplicateMap(1, 2))
    assert dict((p.to_string(), prob) for p, prob in got.entries) == {
        "--": Fraction(1, 2),
        "++": Fraction(1, 2),
    }


def test_pushforward_point_mass():
    phi = ReplicateMap(2, 2)
    src = FiniteSupport(2, ((P("+-"), Fraction(1)),))
    got = pushforward(src, phi)
    assert got.entries == ((P("++--"), Fraction(1)),)


def test_pushforward_uniform_two_variables():
    got = pushforward(UniformCube(2), ReplicateMap(2, 2))
    assert len(got.entries) == 4
    assert all(prob == Fraction(1, 4) for _, prob in got.entries)
    images = {ReplicateMap(2, 2).apply(x).mask for x in enumerate_cube(2)}
    assert {p.mask for p, _ in got.entries} == images


def test_pushforward_rejects_mass_merging():
    class Collapse:
        source_n = 2
        target_n = 2

        def apply(self, x):
            return P("++")

    with pytest.raises(ValueError, match="injective"):
        pushforward(UniformCube(2), Collapse())


def test_exact_loss_trivial_and_symmetric():
    f = DnfFormula(2, (Term.of(1, 2),))
    g = DnfFormula(2, ())
    d = UniformCube(2)
    assert exact_loss(d, f, f) == 0
    assert exact_loss(d, f, g) == exact_loss(d, g, f) == Fraction(1, 4)


def test_exact_loss_caps_enumeration():
    f = DnfFormula(25, (Term.of(1),))
    with pytest.raises(ValueError, match="mc_loss"):
        exact_loss(UniformCube(25), f, f)


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


def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(((P("++"), 2),))
    s = LabeledSample(((P("++"), 1), (P("--"), 0)))
    assert len(s) == 2
    assert s.positives() == [P("++")]
