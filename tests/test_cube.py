import ast
import random
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cubes import cube_points
from lmqlab import concepts, cube, distributions, evident, formats, harness, learner, oracle, reductions
from lmqlab.concepts import DnfFormula, Term
from lmqlab.cube import (
    ENUMERATION_CAP,
    CubePoint,
    DimensionMismatch,
    ball_columns,
    ball_size,
    cube_columns,
    lane_bits,
    lane_columns,
    masks_at_distance,
)
from lmqlab.oracle import LocalityViolation, LocalMQOracle


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def _distance(x: CubePoint, y: CubePoint) -> int:
    """Hamming distance as the package reads it: the distance an oracle anchored at x alone logs for y."""
    oracle = _locality_oracle([x.mask], x.n, x.n)
    oracle.query(y)
    return oracle.entries()[0][2]


def test_hamming_identity():
    assert _distance(P("+++"), P("+++")) == 0


def test_hamming_counts_differing_coordinates():
    assert _distance(P("+-+"), P("---")) == 2


def test_hamming_full_complement():
    x = P("+-+-+")
    y = P(x.to_string().translate(str.maketrans("+-", "-+")))
    assert _distance(x, y) == 5
    assert list(masks_at_distance(x.mask, 5, 5)) == [y.mask]


def test_hamming_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="^query has dimension 3, expected 2$"):
        _distance(P("++"), P("+++"))
    with pytest.raises(DimensionMismatch, match="^anchor has dimension 2, expected 3$"):
        LocalMQOracle(DnfFormula(3, ()), [P("++")], 1)


@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(*(st.integers(0, 2 ** n - 1),) * 3).map(
            lambda ms: tuple(CubePoint(n, m) for m in ms)
        )
    )
)
def test_hamming_is_a_metric(points):
    x, y, z = points
    assert _distance(x, y) == _distance(y, x)
    assert (_distance(x, y) == 0) == (x == y)
    assert _distance(x, z) <= _distance(x, y) + _distance(y, z)
    assert y.mask in set(masks_at_distance(x.mask, x.n, _distance(x, y)))


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
    assert (x.mask ^ x.flip(j).mask).bit_count() == 1


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
    for z in cube_points(3):
        best = min((z.mask ^ a.mask).bit_count() for a in anchors)
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


def test_masks_ascend_in_lexicographic_order():
    assert [CubePoint(1, m).bits for m in range(2)] == [(-1,), (1,)]
    two = [CubePoint(2, m).to_string() for m in range(4)]
    assert two == ["--", "-+", "+-", "++"]


def test_points_of_distinct_masks_are_distinct():
    assert len(set(cube_points(6))) == 64


def test_enumerate_large_stream_count():
    support = distributions.UniformCube(20).support()
    assert next(support) == (0, Fraction(1, 1 << 20))
    assert 1 + sum(1 for _ in support) == 1_048_576


def test_string_round_trip():
    for p in cube_points(4):
        assert CubePoint.from_string(p.to_string()) == p


def test_from_string_validation():
    with pytest.raises(ValueError):
        CubePoint.from_string("+x-")


def test_masks_at_distance_counts():
    masks = set(masks_at_distance(0b1010, 4, 2))
    assert len(masks) == 6
    assert all((m ^ 0b1010).bit_count() == 2 for m in masks)


def _points(columns, full) -> list[int]:
    """The point list bit-sliced columns stand for, read back one point per bit of full."""
    return [sum((c >> p & 1) << i for i, c in enumerate(columns)) for p in range(full.bit_length())]


def _flips(n: int, r: int) -> list[int]:
    """The verifier's walk order: flip count ascending, then ``masks_at_distance`` order."""
    return [m for w in range(1, r + 1) for m in masks_at_distance(0, n, w)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 7, 8, 31, 32, 33, 63, 64, 65]), st.integers(0, 3))
def test_ball_columns_list_the_flips_in_walk_order(n, r):
    r = min(r, 3 if n <= 33 else 2)  # keep the ball small enough to read back point by point
    flips = _flips(n, r)
    columns = ball_columns(n, r)
    assert len(columns) == n and len(flips) == ball_size(n, r) - 1
    assert _points(columns, (1 << len(flips)) - 1) == flips


def test_ball_columns_are_cached_and_equal_a_fresh_build():
    assert ball_columns(9, 2) is ball_columns(9, 2)
    for n in range(1, 13):
        for r in range(4):
            assert ball_columns(n, r) == ball_columns.__wrapped__(n, r)


@pytest.mark.parametrize("n", range(1, 9))
def test_cube_columns_list_every_mask_in_order(n):
    assert _points(cube_columns(n), (1 << (1 << n)) - 1) == list(range(1 << n))


def _geometric_cube_columns(n: int) -> tuple[int, ...]:
    """The closed form: column i repeats 2^i zeros then 2^i ones, one geometric-series division per column."""
    full = (1 << (1 << n)) - 1
    return tuple((((1 << (1 << i)) - 1) << (1 << i)) * (full // ((1 << (2 << i)) - 1)) for i in range(n))


def test_cube_columns_by_doubling_equal_the_geometric_series():
    for n in range(17):
        assert cube_columns.__wrapped__(n) == _geometric_cube_columns(n), n
    assert cube_columns(12) is cube_columns(12)


def test_cube_columns_at_twenty_take_no_big_int_division():
    # The division form took 1.5 s at n = 20 on a 2-core host; doubling takes a few ms there.
    start = time.perf_counter()
    columns = cube_columns.__wrapped__(20)
    assert time.perf_counter() - start < 0.5
    assert len(columns) == 20 and columns[19] == ((1 << (1 << 19)) - 1) << (1 << 19)
    assert columns[0] == int("10" * (1 << 19), 2)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 7, 8, 9, 16, 17, 32, 33, 64, 65, 130]), data=st.data())
def test_lane_columns_and_lane_bits_round_trip(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    reads = data.draw(st.sampled_from([(1 << n) - 1, 0]) | st.integers(0, (1 << n) - 1))
    columns, full, width = lane_columns(masks, n, reads)
    assert width == next(w for w in (1, 2, 4, 8, 16, 32) if 8 * w >= n)
    lows = [8 * width * p for p in range(len(masks))]
    assert full == sum(1 << low for low in lows) and len(columns) == n
    assert [sum((c >> low & 1) << i for i, c in enumerate(columns)) for low in lows] == [m & reads for m in masks]
    for i, c in enumerate(columns):
        assert c & ~full == 0 and lane_bits(c, len(masks), width) == bytes((m & reads) >> i & 1 for m in masks)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
    assert lane_bits(sum(1 << low for low, y in zip(lows, chosen) if y), len(masks), width) == bytes(chosen)


def _deposit(p: int, reads: int) -> int:
    """The mask with bit k of p at the k-th lowest set bit of reads, and 0 at every other bit."""
    read = [i for i in range(reads.bit_length()) if reads >> i & 1]
    return sum((p >> k & 1) << i for k, i in enumerate(read))


RESTRICT_CLASSES = {
    "dnf": lambda n, rng: concepts.random_dnf(n, rng.randint(0, 4), 3, rng),
    "dfa": lambda n, rng: concepts.random_dfa(n, 4, rng),
    "tree": lambda n, rng: concepts.random_tree(n, 6, rng),
    "junta": lambda n, rng: concepts.random_junta(n, rng.randint(1, n), rng),
}


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), kind=st.sampled_from(sorted(RESTRICT_CLASSES)), seed=st.integers(0, 2**32),
       data=st.data())
def test_restrict_equals_a_pointwise_table(n, kind, seed, data):
    """Bit p of the table is the label at the mask that puts p's bits at the read coordinates, lowest first."""
    concept = RESTRICT_CLASSES[kind](n, random.Random(seed))
    reads = data.draw(st.sampled_from([concept.reads, (1 << n) - 1, 0]) | st.integers(0, (1 << n) - 1))
    points = range(1 << reads.bit_count())
    assert cube.restrict(concept, reads) == sum(concept.label(_deposit(p, reads)) << p for p in points)


# ---------------------------------------------------------------------------
# One rule for counts: every entry point that takes a count, dimension or
# budget refuses a bool or a float with the message it gives a bad int.
# Helpers are reached through their modules so each row stands on its own.


def _oracle(**kwargs) -> LocalMQOracle:
    return LocalMQOracle(DnfFormula(2, ()), [P("+-")], **{"q": 1, **kwargs})


def _oracle_for_samples(q=1, **kwargs) -> LocalMQOracle:
    return LocalMQOracle.for_samples(DnfFormula(2, ()), q, distributions.LabeledSample(2, (0b10,), (0,)), **kwargs)


def _config(**overrides) -> harness.ExperimentConfig:
    family = harness.opposite_literal_family(4, 5)
    fields = dict(name="t", family=family, trials=3, base_seed=0, epsilon=0.2, m1=1, m2=1)
    return harness.ExperimentConfig(**{**fields, **overrides})


def _mc_loss(m):
    h = DnfFormula(2, ())
    return distributions.mc_loss(distributions.UniformCube(2), h, h, m, 0)


def _bad_n(v) -> str:
    return f"need positive dimension and factor, got n={v!r}, k=3"


def _bad_k(v) -> str:
    return f"need positive dimension and factor, got n=2, k={v!r}"


_DIMENSION = "dimension must be a positive integer"
_LOCALITY = "locality budget must be non-negative"
_TIMES = "a query is asked a whole number of times, at least once"
_HALF = Fraction(1, 2)

# id, call on the value, an int the call refuses, and the message prefix (or the whole message per value).
COUNT_ROWS = [
    ("CubePoint", lambda v: cube.CubePoint(v, 0), 0, _DIMENSION),
    ("ReplicateMap.n", lambda v: cube.ReplicateMap(v, 3), 0, _bad_n),
    ("ReplicateMap.k", lambda v: cube.ReplicateMap(2, v), 0, _bad_k),
    ("Term", lambda v: Term(frozenset({v}), frozenset()), 0, "variable indices must be positive integers"),
    ("DnfFormula", lambda v: DnfFormula(v, ()), 0, _DIMENSION),
    ("DecisionTree", lambda v: concepts.DecisionTree(v, concepts.Leaf(1)), 0, _DIMENSION),
    ("Junta", lambda v: concepts.Junta(v, (), (1,)), 0, _DIMENSION),
    ("SparsePoly", lambda v: concepts.SparsePoly(v, {}), 0, _DIMENSION),
    ("Dfa.length", lambda v: concepts.Dfa(((0, 0),), 0, frozenset({0}), v), 0, "input length must be positive"),
    ("UniformCube", lambda v: distributions.UniformCube(v), 0, _DIMENSION),
    ("ProductDist", lambda v: distributions.ProductDist(v, (_HALF, _HALF)), 0, _DIMENSION),
    ("FiniteSupport", lambda v: distributions.FiniteSupport(v, ((0, Fraction(1)),)), 0, _DIMENSION),
    ("LabeledSample", lambda v: distributions.LabeledSample(v, (), ()), 0, _DIMENSION),
    ("sample", lambda v: distributions.sample(distributions.UniformCube(2), v, 0), -1,
     "sample count must be non-negative"),
    ("mc_loss", _mc_loss, 0, "sample count must be positive"),
    ("gen_opposite_literal_dnf.d", lambda v: evident.gen_opposite_literal_dnf(6, v, 3, 0), 0,
     "term count must be positive"),
    ("gen_opposite_literal_dnf.term_width", lambda v: evident.gen_opposite_literal_dnf(6, 1, v, 0), 1,
     "term width must be at least 2"),
    ("plan_samples.n", lambda v: learner.plan_samples(v, 0.1), 0, _DIMENSION),
    ("plan_samples.d", lambda v: learner.plan_samples(4, 0.1, v), 0, "term count must be positive"),
    ("LocalMQOracle.q", lambda v: _oracle(q=v), -1, _LOCALITY),
    ("LocalMQOracle.query_cap", lambda v: _oracle(query_cap=v), -1, "query budget must be a non-negative integer"),
    ("LocalMQOracle.for_samples.q", lambda v: _oracle_for_samples(q=v), -1, _LOCALITY),
    ("LocalMQOracle.for_samples.query_cap", lambda v: _oracle_for_samples(query_cap=v), -1,
     "query budget must be a non-negative integer"),
    ("LocalMQOracle.ask", lambda v: _oracle().ask(0b10, v), 0, _TIMES),
    ("LocalMQOracle.ask_flips", lambda v: _oracle().ask_flips(0b10, v), 0, _TIMES),
    ("ExperimentConfig.trials", lambda v: _config(trials=v), 0, "trial count must be at least 1"),
    ("ExperimentConfig.m1", lambda v: _config(m1=v), -1, "sample count must be non-negative"),
    ("ExperimentConfig.q", lambda v: _config(q=v), -1, _LOCALITY),
    ("ExperimentConfig.success_threshold", lambda v: _config(success_threshold=v), -1,
     "success threshold must lie in 0..3"),
    ("run_reconstruction_corpus", harness.run_reconstruction_corpus, 0, "formula count must be at least 1"),
    ("QReduction.q", lambda v: reductions.QReduction("junta", "B", cube.ReplicateMap(2, 3), v, concepts.Junta, None),
     -1, _LOCALITY),
    ("make_reduction.n", lambda v: reductions.make_reduction("junta", v), 0, _DIMENSION),
    ("make_reduction.q0", lambda v: reductions.make_reduction("junta", 2, q0=v), -1, _LOCALITY),
    ("make_reduction.k", lambda v: reductions.make_reduction("dnf", 2, k=v), 0, _bad_k),
]


@pytest.mark.parametrize("kind", ["int", "bool", "float"])
@pytest.mark.parametrize(
    "call, bad_int, message", [r[1:] for r in COUNT_ROWS], ids=[r[0] for r in COUNT_ROWS]
)
def test_counts_refuse_bools_and_floats_with_the_int_message(call, bad_int, message, kind):
    value = {"int": bad_int, "bool": True, "float": 2.5}[kind]
    expected = message(value) if callable(message) else f"{message}, got {value!r}"
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.type is ValueError and str(exc.value) == expected


# The oracle's counts are tested inline on its hot paths, with ``require_count`` called only to raise. These rows add
# the sites and values COUNT_ROWS does not hold (it tries a bad int, True and 2.5): 1.0 at every site it names, -1 as
# times, and every value at ``from_masks`` and ``ask_flips_many``, whose refusal comes from the ``ask_flips`` loop.
_CAP = "query budget must be a non-negative integer"
# site: (call on the value, message prefix)
_ORACLE_SITES = {
    "__init__.q": (lambda v: _oracle(q=v), _LOCALITY),
    "__init__.query_cap": (lambda v: _oracle(query_cap=v), _CAP),
    "for_samples.q": (lambda v: _oracle_for_samples(q=v), _LOCALITY),
    "for_samples.query_cap": (lambda v: _oracle_for_samples(query_cap=v), _CAP),
    "from_masks.q": (lambda v: LocalMQOracle.from_masks(DnfFormula(2, ()), [0b10], v), _LOCALITY),
    "ask": (lambda v: _oracle().ask(0b10, v), _TIMES),
    "ask_flips": (lambda v: _oracle().ask_flips(0b10, v), _TIMES),
    "ask_flips_many": (lambda v: _oracle().ask_flips_many({0b10: v}), _TIMES),
}
ORACLE_COUNT_ROWS = (
    [(site, 1.0) for site in ("__init__.q", "__init__.query_cap", "for_samples.q", "for_samples.query_cap")]
    + [(site, value) for site in ("ask", "ask_flips") for value in (1.0, -1)]
    + [(site, value) for site in ("from_masks.q", "ask_flips_many")
       for value in (True, 1.0, -1, 2.5)]
)


@pytest.mark.parametrize(
    "site, value", ORACLE_COUNT_ROWS, ids=[f"{site}-{value!r}" for site, value in ORACLE_COUNT_ROWS]
)
def test_oracle_counts_refuse_with_the_int_message(site, value):
    call, message = _ORACLE_SITES[site]
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.type is ValueError and str(exc.value) == f"{message}, got {value!r}"


# One rule for values: a mask, label, automaton state, junta table entry, leaf label, coordinate, term
# index or variable count is an int (never a bool, a float or a string, even one equal to an
# in-range int) and each entry point says so in its message.
_DFA = ((0, 1), (1, 0))
_STATES = "start and accepting states must lie in 0..1"

# id, call on the value, the error type, and the message (or the message per value).
VALUE_ROWS = [
    ("CubePoint.mask", lambda v: cube.CubePoint(2, v), DimensionMismatch,
     lambda v: f"mask {v!r} out of range for dimension 2"),
    ("LocalMQOracle.ask", lambda v: _oracle().ask(v), DimensionMismatch,
     lambda v: f"query mask {v!r} out of range for dimension 2"),
    ("LocalMQOracle.ask_flips", lambda v: _oracle().ask_flips(v), DimensionMismatch,
     lambda v: f"query mask {v!r} out of range for dimension 2"),
    ("LocalMQOracle.from_masks", lambda v: LocalMQOracle.from_masks(DnfFormula(2, ()), [0, v], 1), DimensionMismatch,
     lambda v: f"anchor mask {v!r} out of range for dimension 2"),
    ("CubePoint.bit", lambda v: P("+-").bit(v), DimensionMismatch, lambda v: f"coordinate {v!r} out of range 1..2"),
    ("CubePoint.flip", lambda v: P("+-").flip(v), DimensionMismatch, lambda v: f"coordinate {v!r} out of range 1..2"),
    ("DecisionTree.var", lambda v: concepts.DecisionTree(3, concepts.Node(v, concepts.Leaf(0), concepts.Leaf(1))),
     DimensionMismatch, lambda v: f"node variable {v!r} out of range 1..3"),
    ("Junta.relevant", lambda v: concepts.Junta(4, (v,), (0, 1)), DimensionMismatch,
     lambda v: f"relevant variable {v!r} out of range 1..4"),
    ("SparsePoly.monomial", lambda v: concepts.SparsePoly(3, {frozenset({v}): 1}), DimensionMismatch,
     lambda v: f"monomial variable {v!r} out of range 1..3"),
    ("satisfies_evidently.i", lambda v: evident.satisfies_evidently(DnfFormula(2, (Term.of(1), Term.of(2))), v, 0),
     ValueError, lambda v: f"term index {v!r} out of range for 2 terms"),
    # maj_poly is cached by its count, so maj_poly(1) is built first. An untyped cache keys a lone positional int by
    # itself and True or 1.0 by a tuple, which never meet; by keyword, k=True and k=1.0 would meet k=1's entry.
    ("maj_poly", lambda v: (concepts.maj_poly(1), concepts.maj_poly(v)), ValueError,
     lambda v: f"variable count {v!r} out of range 1..15"),
    ("maj_poly.k", lambda v: (concepts.maj_poly(k=1), concepts.maj_poly(k=v)), ValueError,
     lambda v: f"variable count {v!r} out of range 1..15"),
    ("DnfFormula.satisfied_indices", lambda v: DnfFormula(2, ()).satisfied_indices(v), DimensionMismatch,
     lambda v: f"mask {v!r} out of range for dimension 2"),
    ("FiniteSupport.mask", lambda v: distributions.FiniteSupport(2, ((v, _HALF), (0, _HALF))), DimensionMismatch,
     lambda v: f"support mask {v!r} out of range for dimension 2"),
    ("LabeledSample.masks", lambda v: distributions.LabeledSample(2, (0, v), (0, 1)), DimensionMismatch,
     lambda v: f"sample mask {v!r} out of range for dimension 2"),
    ("LabeledSample.labels", lambda v: distributions.LabeledSample(2, (0, 1), (0, v)), ValueError,
     "labels must be 0 or 1"),
    ("Dfa.start", lambda v: concepts.Dfa(_DFA, v, frozenset(), 2), ValueError, _STATES),
    ("Dfa.accepting", lambda v: concepts.Dfa(_DFA, 0, frozenset({0, v}), 2), ValueError, _STATES),
    ("Dfa.delta", lambda v: concepts.Dfa(((0, 1), (v, 0)), 0, frozenset(), 2), ValueError,
     lambda v: f"state 1 needs two transitions into 0..1, got ({v!r}, 0)"),
    ("Junta.table", lambda v: concepts.Junta(2, (1,), (0, v)), ValueError, "table entries must be 0 or 1"),
    ("Leaf", lambda v: concepts.Leaf(v), ValueError, lambda v: f"leaf label must be 0 or 1, got {v!r}"),
]


@pytest.mark.parametrize("value", [True, 2.5, "1", 1.0], ids=["bool", "float", "str", "integral-float"])
@pytest.mark.parametrize("call, error, message", [r[1:] for r in VALUE_ROWS], ids=[r[0] for r in VALUE_ROWS])
def test_values_refuse_anything_but_an_int_with_one_message(call, error, message, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.type is error and str(exc.value) == (message(value) if callable(message) else message)


# One misfit rule: a value used on a cube of another dimension, a mask that is not an int in 0..2^n - 1, or a variable
# index outside 1..n is refused by ``cube.require_dimension``, ``require_masks`` or ``require_variables``, each a
# ``DimensionMismatch`` in one message shape. Each row is one site of the package.
_DNF2, _DNF3, _UNIFORM2 = DnfFormula(2, ()), DnfFormula(3, ()), distributions.UniformCube(2)


def _sample(n: int) -> distributions.LabeledSample:
    return distributions.LabeledSample(n, (0,), (1,))


def _learn(s1_n: int, s2_n: int) -> None:
    learner.learn_evident_dnf(_sample(s1_n), _sample(s2_n), LocalMQOracle.for_samples(_DNF3, 1, _sample(3)))


def _simulate(s1_n: int, s2_n: int) -> None:
    dnf = reductions.make_reduction("dnf", 2)
    reductions.simulate_pac_from_local(learner.learn_evident_dnf, dnf, _sample(s1_n), _sample(s2_n))

# id, the misfit call, its message.
MISFIT_ROWS = [
    # Dimensions.
    ("MaskConcept.evaluate", lambda: _DNF3.evaluate(P("++")), "point has dimension 2, expected 3"),
    ("SparsePoly.evaluate", lambda: concepts.SparsePoly(3, {}).evaluate(P("++")), "point has dimension 2, expected 3"),
    ("ReplicateMap.apply", lambda: cube.ReplicateMap(3, 2).apply(P("++")), "point has dimension 2, expected 3"),
    ("pushforward", lambda: distributions.pushforward(_UNIFORM2, cube.ReplicateMap(3, 2)),
     "distribution has dimension 2, expected 3"),
    ("exact_loss.target", lambda: distributions.exact_loss(_UNIFORM2, _DNF3, _DNF2),
     "target has dimension 3, expected 2"),
    ("exact_loss.hypothesis", lambda: distributions.exact_loss(_UNIFORM2, _DNF2, _DNF3),
     "hypothesis has dimension 3, expected 2"),
    ("mc_loss.target", lambda: distributions.mc_loss(_UNIFORM2, _DNF3, _DNF2, 10, 0),
     "target has dimension 3, expected 2"),
    ("mc_loss.hypothesis", lambda: distributions.mc_loss(_UNIFORM2, _DNF2, _DNF3, 10, 0),
     "hypothesis has dimension 3, expected 2"),
    ("evidence_report", lambda: evident.evidence_report(_DNF3, _UNIFORM2),
     "distribution has dimension 2, expected 3"),
    ("parse_finite_support", lambda: formats.parse_finite_support("++ 1/2\n+++ 1/2\n"),
     "support point has dimension 3, expected 2"),
    ("learn_evident_dnf.s1", lambda: _learn(2, 3), "sample has dimension 2, expected 3"),
    ("learn_evident_dnf.s2", lambda: _learn(3, 2), "sample has dimension 2, expected 3"),
    ("LocalMQOracle.anchor", lambda: LocalMQOracle(_DNF3, [P("++")], 1), "anchor has dimension 2, expected 3"),
    ("LocalMQOracle.for_samples", lambda: LocalMQOracle.for_samples(_DNF3, 1, _sample(2)),
     "sample has dimension 2, expected 3"),
    ("LocalMQOracle.query", lambda: _oracle().query(P("+++")), "query has dimension 3, expected 2"),
    ("draw_training_set", lambda: oracle.draw_training_set(_UNIFORM2, _DNF3, 5, 0),
     "concept has dimension 3, expected 2"),
    ("QReduction.transform.concept", lambda: reductions.make_reduction("dnf", 2).transform(_DNF3),
     "dnf concept has dimension 3, expected 2"),
    ("QReduction.transform.result",
     lambda: replace(reductions.make_reduction("dnf", 2), reduce=lambda h, phi: h).transform(_DNF2),
     "transformed concept has dimension 2, expected 8"),
    ("build_block_simulator", lambda: reductions.build_block_simulator(concepts.parity_dfa(3), cube.ReplicateMap(2, 3)),
     "source automaton has dimension 3, expected 2"),
    ("dfa_product_or", lambda: reductions.dfa_product_or(concepts.parity_dfa(2), concepts.parity_dfa(3)),
     "second automaton has dimension 3, expected 2"),
    ("SynthesizedLabels", lambda: reductions.SynthesizedLabels(reductions.make_reduction("dnf", 2), _sample(2)),
     "mapped sample has dimension 2, expected 8"),
    ("simulate_pac_from_local.s1", lambda: _simulate(3, 2), "sample has dimension 3, expected 2"),
    ("simulate_pac_from_local.s2", lambda: _simulate(2, 3), "sample has dimension 3, expected 2"),
    ("ComposedConcept", lambda: reductions.ComposedConcept(_DNF3, cube.ReplicateMap(2, 2)),
     "inner concept has dimension 3, expected 4"),
    # Masks.
    ("Term.from_masks", lambda: Term.from_masks(3, 8, 0), "term mask 8 out of range for dimension 3"),
    ("Term.from_masks.negative", lambda: Term.from_masks(3, 1, -1), "term mask -1 out of range for dimension 3"),
    ("Term.from_masks.bool", lambda: Term.from_masks(3, True, 0), "term mask True out of range for dimension 3"),
    ("Term.from_masks.float", lambda: Term.from_masks(3, 1.0, 0), "term mask 1.0 out of range for dimension 3"),
    ("DnfFormula.satisfied_indices", lambda: _DNF2.satisfied_indices(4), "mask 4 out of range for dimension 2"),
    ("CubePoint", lambda: CubePoint(2, 4), "mask 4 out of range for dimension 2"),
    ("FiniteSupport", lambda: distributions.FiniteSupport(2, ((4, Fraction(1)),)),
     "support mask 4 out of range for dimension 2"),
    ("LabeledSample", lambda: distributions.LabeledSample(2, (0, 4), (0, 1)),
     "sample mask 4 out of range for dimension 2"),
    ("LocalMQOracle.from_masks", lambda: LocalMQOracle.from_masks(_DNF2, [0, 4], 1),
     "anchor mask 4 out of range for dimension 2"),
    ("LocalMQOracle.ask", lambda: _oracle().ask(4), "query mask 4 out of range for dimension 2"),
    ("LocalMQOracle.ask_flips", lambda: _oracle().ask_flips(-1), "query mask -1 out of range for dimension 2"),
    # Variable indices.
    ("Term.satisfied_by", lambda: Term.of(1, -3).satisfied_by(P("++")), "term variable 3 out of range 1..2"),
    ("DnfFormula", lambda: DnfFormula(2, (Term.of(1), Term.of(-3))), "variable 3 out of range 1..2"),
    ("DecisionTree", lambda: concepts.DecisionTree(2, concepts.Node(3, concepts.Leaf(0), concepts.Leaf(1))),
     "node variable 3 out of range 1..2"),
    ("DecisionTree.zero", lambda: concepts.DecisionTree(3, concepts.Node(0, concepts.Leaf(0), concepts.Leaf(1))),
     "node variable 0 out of range 1..3"),
    ("Junta", lambda: concepts.Junta(2, (3,), (0, 1)), "relevant variable 3 out of range 1..2"),
    ("Junta.zero", lambda: concepts.Junta(4, (0,), (0, 1)), "relevant variable 0 out of range 1..4"),
    ("Junta.unhashable",  # a TypeError from the distinct-variables test before
     lambda: concepts.Junta(3, ([1],), (0, 1)), "relevant variable [1] out of range 1..3"),
    ("SparsePoly", lambda: concepts.SparsePoly(2, {frozenset({1, 3}): 1}), "monomial variable 3 out of range 1..2"),
    ("SparsePoly.zero", lambda: concepts.SparsePoly(3, {frozenset({0}): 1}), "monomial variable 0 out of range 1..3"),
    ("CubePoint.bit", lambda: P("++").bit(3), "coordinate 3 out of range 1..2"),
    ("CubePoint.flip", lambda: P("++").flip(0), "coordinate 0 out of range 1..2"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in MISFIT_ROWS], ids=[r[0] for r in MISFIT_ROWS])
def test_every_misfit_is_one_dimension_mismatch_in_one_message(call, message):
    for _ in range(2):  # and again: no cache (build_block_simulator's, dfa_product_or's) keeps a misfit
        with pytest.raises(ValueError) as exc:
            call()
        assert exc.type is DimensionMismatch and str(exc.value) == message


def _name(node: ast.AST):
    return getattr(node, "id", getattr(node, "attr", None))


def _src_trees() -> list[tuple[str, ast.Module]]:
    return [(path.name, ast.parse(path.read_text())) for path in sorted(Path(cube.__file__).parent.glob("*.py"))]


def _callers(callee: str) -> list[tuple[str, str | None]]:
    """(module file, innermost enclosing function) of each call of ``callee`` in ``src/lmqlab``, in file order."""
    callers = []
    for file, tree in _src_trees():
        functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _name(node.func) == callee]
        for line in sorted(node.lineno for node in calls):
            within = [f for f in functions if f.lineno <= line <= f.end_lineno]
            callers.append((file, max(within, key=lambda f: f.lineno).name if within else None))
    return callers


def test_only_the_three_cube_rules_build_a_dimension_mismatch():
    """In ``src/lmqlab``, a ``DimensionMismatch(...)`` is built in ``cube.py`` alone, once in each rule."""
    rules = ["require_dimension", "require_masks", "require_variables"]
    assert _callers("DimensionMismatch") == [("cube.py", rule) for rule in rules]


# One cap rule: every desk-scale limit is refused by ``cube.require_at_most``, in one message shape, before what it
# bounds is built. Each row is one cap site of the package.
def _pairs_poly(n: int) -> concepts.SparsePoly:
    return concepts.SparsePoly(n, {frozenset(pair): 1 for pair in combinations(range(1, n + 1), 2)})


CAP_ROWS = [
    ("Junta", lambda: concepts.Junta(20, tuple(range(1, 18)), ()),
     "junta relevant variables: 17 exceeds the cap of 16"),
    ("reduce_junta_type_b",
     lambda: reductions.reduce_junta_type_b(concepts.Junta(6, tuple(range(1, 7)), (0,) * 64), cube.ReplicateMap(6, 3)),
     "reduced junta relevant variables: 18 exceeds the cap of 16"),
    ("reduce_tree_type_b",  # 16 leaves stacked 5 times
     lambda: reductions.reduce_tree_type_b(concepts.random_tree(4, 16, random.Random(1)), cube.ReplicateMap(4, 5)),
     "stacked tree leaves: 1048576 exceeds the cap of 32768"),
    ("reduce_poly_type_b.expansion",  # x2's expansion: 1024 monomials of x1's times the 1024 of Maj_11
     lambda: reductions.reduce_poly_type_b(_pairs_poly(2), cube.ReplicateMap(2, 11)),
     "expanded polynomial monomials: 1048576 exceeds the cap of 65536"),
    ("reduce_poly_type_b.merge",  # the 4097th of 4950 pairs adds its 16 monomials to 65,536
     lambda: reductions.reduce_poly_type_b(_pairs_poly(100), cube.ReplicateMap(100, 3)),
     "expanded polynomial monomials: 65552 exceeds the cap of 65536"),
    ("verify_reduction",  # ball_size(125, 3) << 5
     lambda: reductions.verify_reduction(reductions.make_reduction("dnf", 5), DnfFormula(5, ())),
     "flip checks: 10420032 exceeds the cap of 5000000"),
    ("require_enumerable", lambda: cube.require_enumerable(25), "enumerated cube dimension: 25 exceeds the cap of 24"),
    ("exact_loss",
     lambda: distributions.exact_loss(distributions.UniformCube(25), DnfFormula(25, ()), DnfFormula(25, ())),
     "enumerated cube dimension: 25 exceeds the cap of 24"),
    ("require_trial_inputs", lambda: harness.require_trial_inputs(1 << 24, 1, 0),
     "sample sizes m1 + m2: 16777217 exceeds the cap of 16777216"),
    ("require_trial_inputs.what", lambda: harness.require_trial_inputs(0, 1 << 25, 0, what="planned draws"),
     "planned draws: 33554432 exceeds the cap of 16777216"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in CAP_ROWS], ids=[r[0] for r in CAP_ROWS])
def test_every_cap_refusal_is_one_value_error_in_one_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message


CAPS = {"JUNTA_CAP", "TREE_LEAF_CAP", "POLY_COEFF_CAP", "FLIP_ENUM_BUDGET", "ENUMERATION_CAP"}


def test_every_cap_is_compared_by_the_one_cap_rule_alone():
    """In ``src/lmqlab`` no comparison names a refusal cap, and ``require_at_most`` is called once per cap site."""
    compared = [(file, node.lineno) for file, tree in _src_trees() for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and CAPS & {_name(inner) for inner in ast.walk(node)}]
    assert compared == []
    assert _callers("require_at_most") == [
        ("concepts.py", "__post_init__"),
        ("cube.py", "require_enumerable"),
        ("harness.py", "require_trial_inputs"),
        ("reductions.py", "reduce_junta_type_b"),
        ("reductions.py", "reduce_tree_type_b"),
        ("reductions.py", "reduce_poly_type_b"),
        ("reductions.py", "reduce_poly_type_b"),
        ("reductions.py", "verify_reduction"),
    ]


def test_a_polynomial_expansion_over_the_cap_is_refused_before_it_is_built():
    # x1 * x2 with Maj_11 for each variable: x1's expansion has 1024 monomials, and x2's would have 1024 * 1024.
    # Built, they took hundreds of MB; refused first, the peak is what x1's expansion and Maj_11 hold.
    poly, phi = _pairs_poly(2), cube.ReplicateMap(2, 11)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^expanded polynomial monomials: 1048576 exceeds the cap of 65536$"):
            reductions.reduce_poly_type_b(poly, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_the_cap_rule_takes_its_cap_itself():
    cube.require_at_most("size", 5, 5)
    with pytest.raises(ValueError, match="^size: 6 exceeds the cap of 5$"):
        cube.require_at_most("size", 6, 5)


# One order rule: a collection whose order a value keeps is a ``Sequence``; a set, frozenset, dict or dict view
# (or an iterator, without a length) is refused by ``cube.require_sequence``, never silently reordered.
_ORDERED = "must be a sequence (ordered, with a length), got"
ORDER_ROWS = [
    ("ProductDist.plus_probs",  # stored as (1/2, 1/3) before
     lambda: distributions.ProductDist(2, {Fraction(1, 3), _HALF}), f"coordinate probabilities {_ORDERED} set"),
    ("ProductDist.plus_probs.dict-values",
     lambda: distributions.ProductDist(2, {1: Fraction(1, 3), 2: _HALF}.values()),
     f"coordinate probabilities {_ORDERED} dict_values"),
    ("Junta.table",  # stored as the table (0, 1) before
     lambda: concepts.Junta(3, (1,), {1, 0}), f"junta table {_ORDERED} set"),
    ("Junta.relevant.dict-keys",  # taken as (1, 3) before
     lambda: concepts.Junta(3, {1: 0, 3: 0}.keys(), (0, 1, 0, 0)), f"junta relevant variables {_ORDERED} dict_keys"),
    ("Junta.relevant.dict", lambda: concepts.Junta(3, {3: 0}, (0, 1)), f"junta relevant variables {_ORDERED} dict"),
    ("Dfa.delta",  # states numbered in set order before
     lambda: concepts.Dfa({(1, 0), (0, 1)}, 0, {1}, 3), f"automaton transition rows {_ORDERED} set"),
    ("Dfa.delta.frozenset", lambda: concepts.Dfa(frozenset({(0, 0)}), 0, {0}, 1),
     f"automaton transition rows {_ORDERED} frozenset"),
    ("LabeledSample.masks", lambda: distributions.LabeledSample(3, {5, 2, 7}, (1, 0, 0)),
     f"sample masks {_ORDERED} set"),
    ("LabeledSample.labels", lambda: distributions.LabeledSample(3, (5, 2), {5: 1, 2: 0}.values()),
     f"sample labels {_ORDERED} dict_values"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in ORDER_ROWS], ids=[r[0] for r in ORDER_ROWS])
def test_every_unordered_collection_is_refused_in_one_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message


# One rule for exact rationals: a coefficient, threshold or probability is an int, a finite float or a Fraction.
RATIONAL_ROWS = [
    ("SparsePoly.coefficient", lambda v: concepts.SparsePoly(2, {frozenset({1}): v}), "coefficient"),
    ("SparsePtf.theta", lambda v: concepts.SparsePtf(concepts.SparsePoly(2, {frozenset({1}): 1}), v), "threshold"),
    ("ProductDist.plus_probs", lambda v: distributions.ProductDist(2, (_HALF, v)), "probability"),
    ("FiniteSupport.prob", lambda v: distributions.FiniteSupport(2, ((0, _HALF), (1, v))), "probability"),
]


class _Int(int):
    """An int subclass: ``is_int`` refuses it, and so does ``exact_rational``."""


_NOT_RATIONAL = [True, float("nan"), float("inf"), "1/2", _Int(1)]
_NOT_RATIONAL_IDS = ["bool", "nan", "inf", "str", "int-subclass"]


@pytest.mark.parametrize("value", [*_NOT_RATIONAL, None], ids=[*_NOT_RATIONAL_IDS, "None"])
@pytest.mark.parametrize("call, what", [r[1:] for r in RATIONAL_ROWS], ids=[r[0] for r in RATIONAL_ROWS])
def test_rationals_refuse_anything_but_an_exact_number_with_one_message(call, what, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert exc.type is ValueError
    assert str(exc.value) == f"{what} must be an int, a finite float or a Fraction, got {value!r}"


# evidence_report reads beta=None as its default 1/n, so None is the one value it takes that the rule refuses.
@pytest.mark.parametrize("value", _NOT_RATIONAL, ids=_NOT_RATIONAL_IDS)
def test_evidence_beta_follows_the_rational_rule(value):
    with pytest.raises(ValueError) as exc:
        evident.evidence_report(DnfFormula(2, (Term.of(1),)), distributions.UniformCube(2), value)
    assert exc.type is ValueError
    assert str(exc.value) == f"beta must be an int, a finite float or a Fraction, got {value!r}"


def test_exact_rational_keeps_what_it_accepts_exact():
    assert [cube.exact_rational(v, "x") for v in (3, 0.5, Fraction(1, 3))] == [3, Fraction(1, 2), Fraction(1, 3)]
    assert evident.evidence_report(DnfFormula(2, (Term.of(1),)), distributions.UniformCube(2), 0.5).beta == _HALF


def test_first_bad_int_names_the_first_value_is_int_refuses():
    assert cube.first_bad_int((), 0, 1) is None and cube.first_bad_int((0, 1, 1), 0, 1) is None
    assert [cube.first_bad_int(v, 0, 3) for v in ((0, 4, True), (1, 2.0, -1), (3, 2, "0"), (1, None))] == [1, 1, 2, 1]
    # A range narrower than the values is read off their set; a wider one by min and max: both agree.
    for values in ((0, 1) * 5, tuple(range(10)), (9, 0, 10), (0, 1, True, 1)):
        for least, most in ((0, 1), (0, 9), (0, 100)):
            expected = next((i for i, v in enumerate(values) if not cube.is_int(v, least, most)), None)
            assert cube.first_bad_int(values, least, most) == expected


EPSILON_ROWS = [
    ("plan_samples", lambda e: learner.plan_samples(4, e)),
    ("ExperimentConfig", lambda e: _config(epsilon=e)),
    ("require_epsilon", lambda e: learner.require_epsilon(e)),
]


@pytest.mark.parametrize("epsilon", [0, 1, float("nan")], ids=["0", "1", "nan"])
@pytest.mark.parametrize("call", [r[1] for r in EPSILON_ROWS], ids=[r[0] for r in EPSILON_ROWS])
def test_epsilon_outside_the_open_unit_interval_has_one_message(call, epsilon):
    with pytest.raises(ValueError) as exc:
        call(epsilon)
    assert exc.type is ValueError and str(exc.value) == f"epsilon must lie in (0,1), got {epsilon}"


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Decimal("0.5")], ids=["Fraction", "Decimal"])
@pytest.mark.parametrize("call", [r[1] for r in EPSILON_ROWS], ids=[r[0] for r in EPSILON_ROWS])
def test_epsilon_that_is_not_a_float_is_refused_before_any_work(call, epsilon):
    # Inside (0, 1) but not JSON-serialisable: a suite would run every trial and
    # only then fail to write its canonical report.
    with pytest.raises(ValueError) as exc:
        call(epsilon)
    assert exc.type is ValueError and str(exc.value) == f"epsilon must be a float, got {epsilon!r}"


_ABOVE_CAP = ENUMERATION_CAP + 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: cube.require_enumerable(_ABOVE_CAP),
        lambda: list(distributions.UniformCube(_ABOVE_CAP).support()),
        lambda: list(distributions.ProductDist(_ABOVE_CAP, (_HALF,) * _ABOVE_CAP).support()),
        lambda: distributions.support_weights(distributions.ProductDist(_ABOVE_CAP, (_HALF,) * _ABOVE_CAP)),
        lambda: distributions.pushforward(distributions.UniformCube(_ABOVE_CAP), cube.ReplicateMap(_ABOVE_CAP, 3)),
        lambda: evident.evident_tables(DnfFormula(_ABOVE_CAP, ())),
        lambda: cube.restrict(DnfFormula(_ABOVE_CAP + 2, ()), (1 << _ABOVE_CAP) - 1 << 1),
    ],
    ids=["require_enumerable", "UniformCube.support", "ProductDist.support", "support_weights", "pushforward",
         "evident_tables", "restrict"],
)
def test_enumeration_cap_has_one_message(call):
    message = f"^enumerated cube dimension: {_ABOVE_CAP} exceeds the cap of {ENUMERATION_CAP}$"
    with pytest.raises(ValueError, match=message):
        call()


def test_enumeration_cap_itself_is_enumerable():
    cube.require_enumerable(ENUMERATION_CAP)
