import pytest
from hypothesis import given, settings, strategies as st

from lmqlab.concepts import DnfFormula, Term
from lmqlab.cube import (
    ENUMERATION_CAP,
    CubePoint,
    DimensionMismatch,
    ball_size,
    enumerate_cube,
    masks_at_distance,
)
from lmqlab.oracle import LocalityViolation, LocalMQOracle


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def test_hamming_identity():
    assert P("+++").hamming(P("+++")) == 0


def test_hamming_counts_differing_coordinates():
    assert P("+-+").hamming(P("---")) == 2


def test_hamming_full_complement():
    x = P("+-+-+")
    y = CubePoint.from_bits([-b for b in x.bits])
    assert x.hamming(y) == 5


def test_hamming_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        P("++").hamming(P("+++"))


def test_flip_definition():
    assert P("++").flip(1) == P("-+")


def test_flip_out_of_range():
    with pytest.raises(ValueError):
        P("++").flip(3)
    with pytest.raises(ValueError):
        P("++").flip(0)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** n - 1), st.integers(1, n))))
def test_flip_involution_and_distance(case):
    n, mask, j = case
    x = CubePoint(n, mask)
    assert x.flip(j).flip(j) == x
    assert x.hamming(x.flip(j)) == 1


@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(*(st.integers(0, 2 ** n - 1),) * 3).map(
            lambda ms: tuple(CubePoint(n, m) for m in ms)
        )
    )
)
def test_hamming_is_a_metric(points):
    x, y, z = points
    assert x.hamming(y) == y.hamming(x)
    assert (x.hamming(y) == 0) == (x == y)
    assert x.hamming(z) <= x.hamming(y) + y.hamming(z)


def _anchor_sets(n: int):
    """Empty, small and dense anchor sets over n bits."""
    dense = st.integers(0, (1 << (1 << n)) - 1).map(
        lambda bits: frozenset(m for m in range(1 << n) if bits >> m & 1)
    )
    small = st.frozensets(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)
    return st.one_of(st.just(frozenset()), small, dense)


def _locality_oracle(anchors, n: int, q: int) -> LocalMQOracle:
    """A q-local oracle on n bits answering the first coordinate, anchored at int masks."""
    return LocalMQOracle(DnfFormula(n, (Term.of(1),)), [CubePoint(n, a) for a in anchors], q)


@settings(max_examples=100)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), _anchor_sets(n), st.integers(0, n), st.integers(0, (1 << n) - 1))
    )
)
def test_oracle_locality_matches_brute_force_nearest(case):
    n, anchors, q, z = case
    oracle = _locality_oracle(anchors, n, q)
    best = min(((z ^ a).bit_count() for a in anchors), default=None)
    if best is None or best > q:
        with pytest.raises(LocalityViolation) as err:
            oracle.ask(z)
        assert err.value.min_distance == best
    else:
        assert oracle.ask(z) == z >> (n - 1)
        assert oracle.entries() == [(z, z >> (n - 1), best, 1)]


def _in_ball(z: CubePoint, anchors, q: int) -> bool:
    try:
        _locality_oracle((a.mask for a in anchors), z.n, q).query(z)
    except LocalityViolation:
        return False
    return True


def test_in_ball_basic_cases():
    assert _in_ball(P("-+"), [P("++")], 1) is True
    assert _in_ball(P("-+"), [P("++")], 0) is False
    assert _in_ball(P("-+"), [P("--"), P("-+")], 0) is True
    assert _in_ball(P("-+"), [], 5) is False


def test_in_ball_matches_min_distance_exhaustively():
    anchors = [P("++-"), P("---")]
    for z in enumerate_cube(3):
        best = min(z.hamming(a) for a in anchors)
        for q in range(4):
            assert _in_ball(z, anchors, q) == (best <= q)


def test_oracle_rejects_negative_radius():
    with pytest.raises(ValueError, match="^locality budget must be non-negative, got -1$"):
        _locality_oracle([0], 3, -1)


def test_ball_size_counts_points_within_radius():
    for n in range(1, 7):
        for q in range(n + 2):
            within = sum(1 for m in range(1 << n) if m.bit_count() <= q)
            assert ball_size(n, q) == within


def test_enumerate_base_case_and_order():
    assert [p.bits for p in enumerate_cube(1)] == [(-1,), (1,)]
    two = [p.to_string() for p in enumerate_cube(2)]
    assert two == ["--", "-+", "+-", "++"]


def test_enumerate_cardinality():
    points = list(enumerate_cube(6))
    assert len(points) == 64
    assert len(set(points)) == 64


def test_enumerate_large_stream_count():
    assert sum(1 for _ in enumerate_cube(20)) == 1_048_576


def test_enumerate_cap_error_names_cap():
    with pytest.raises(ValueError, match=str(ENUMERATION_CAP)):
        list(enumerate_cube(ENUMERATION_CAP + 1))


def test_string_round_trip():
    for p in enumerate_cube(4):
        assert CubePoint.from_string(p.to_string()) == p


def test_from_bits_validation():
    with pytest.raises(ValueError):
        CubePoint.from_bits([1, 0, -1])
    with pytest.raises(ValueError):
        CubePoint.from_string("+x-")


def test_masks_at_distance_counts():
    masks = set(masks_at_distance(0b1010, 4, 2))
    assert len(masks) == 6
    assert all((m ^ 0b1010).bit_count() == 2 for m in masks)
