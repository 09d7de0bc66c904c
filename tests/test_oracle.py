import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lmqlab.concepts import DnfFormula, Term, random_dnf
from lmqlab.cube import CubePoint, DimensionMismatch, ball_size, enumerate_cube
from lmqlab.distributions import FiniteSupport, LabeledSample, ProductDist, UniformCube, sample
from lmqlab.learner import learn_evident_dnf_run
from lmqlab.oracle import (
    BudgetExhausted,
    LocalityViolation,
    LocalMQOracle,
    OracleStats,
    draw_training_set,
)
from fractions import Fraction


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


TARGET = DnfFormula(3, (Term.of(1, 2),))


def test_draw_empty():
    s = draw_training_set(UniformCube(3), TARGET, 0, seed=1)
    assert len(s) == 0


def test_draw_point_mass():
    dist = FiniteSupport(3, ((P("++-"), Fraction(1)),))
    s = draw_training_set(dist, TARGET, 4, seed=1)
    assert (s.n, s.masks, s.labels) == (3, (P("++-").mask,) * 4, (1,) * 4)
    assert tuple(s) == ((P("++-"), 1),) * 4


def test_draw_labels_match_target():
    s = draw_training_set(UniformCube(3), TARGET, 200, seed=3)
    for x, y in s:
        assert y == TARGET.evaluate(x)


@pytest.mark.parametrize(
    "dist",
    [
        UniformCube(3),
        ProductDist(3, (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))),
        FiniteSupport(3, ((P("++-"), Fraction(1, 4)), (P("+-+"), Fraction(3, 4)))),
    ],
    ids=lambda d: type(d).__name__,
)
def test_draw_pairs_are_the_sampled_points_labelled(dist):
    masks = sample(dist, 300, seed=5)
    target = CountingTarget(TARGET)
    s = draw_training_set(dist, target, 300, seed=5)
    assert tuple(s) == tuple((CubePoint(3, m), TARGET.evaluate(CubePoint(3, m))) for m in masks)
    assert s.masks == tuple(masks)
    # Repeated draws are labelled once.
    assert target.calls == len(set(masks))


def test_query_at_distance_one():
    anchor = P("+++")
    o = LocalMQOracle(TARGET, [anchor], q=1)
    z = anchor.flip(3)
    assert o.query(z) == TARGET.evaluate(z) == 1
    assert o.log[0].distance == 1


def test_query_at_anchor_with_zero_budget_radius():
    anchor = P("+-+")
    o = LocalMQOracle(TARGET, [anchor], q=0)
    assert o.query(anchor) == 0
    assert o.log[0].distance == 0


def test_locality_violation_reports_distance():
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    far = P("--+")
    with pytest.raises(LocalityViolation) as exc:
        o.query(far)
    assert exc.value.min_distance == 2 and exc.value.q == 1
    assert len(o.log) == 0


def test_no_anchors_means_no_queries():
    o = LocalMQOracle(TARGET, [], q=3)
    with pytest.raises(LocalityViolation):
        o.query(P("+++"))


def test_budget_exhausted():
    o = LocalMQOracle(TARGET, [P("+++")], q=1, query_cap=2)
    o.query(P("+++"))
    o.query(P("++-"))
    with pytest.raises(BudgetExhausted):
        o.query(P("+-+"))


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        LocalMQOracle(TARGET, [P("+++")], q=1, query_cap=-5)
    o = LocalMQOracle(TARGET, [P("+++")], q=1, query_cap=0)
    with pytest.raises(BudgetExhausted):
        o.query(P("+++"))


def test_batch_that_fills_the_budget_is_answered_and_one_more_is_refused():
    o = LocalMQOracle(TARGET, [P("+++")], q=1, query_cap=5)
    assert o.ask(P("++-").mask, 2) == 1
    assert o.ask(P("+++").mask, 3) == 1
    before = (o.stats(), o.log)
    for mask in (P("++-").mask, P("-++").mask):
        with pytest.raises(BudgetExhausted):
            o.ask(mask)
    assert (o.stats(), o.log) == before
    assert o.stats().query_count == 5


def test_batch_beyond_the_budget_is_refused_whole():
    o = LocalMQOracle(TARGET, [P("+++")], q=1, query_cap=5)
    with pytest.raises(BudgetExhausted):
        o.ask(P("++-").mask, 6)
    assert o.log == () and o.stats().query_count == 0


def test_ask_rejects_bad_masks_and_counts():
    o = LocalMQOracle(TARGET, [P("+++")], q=3)
    for mask in (-1, 1 << 3):
        with pytest.raises(DimensionMismatch):
            o.ask(mask)
    for times in (0, -2):
        with pytest.raises(ValueError, match="at least once"):
            o.ask(P("+++").mask, times)
    assert o.log == ()


@pytest.mark.parametrize("times", [1.5, 2.0, True, "2", None])
def test_ask_and_ask_flips_reject_a_count_that_is_not_an_int(times):
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    for ask in (o.ask, o.ask_flips):
        with pytest.raises(ValueError, match="whole number of times"):
            ask(P("+++").mask, times)
    assert o.log == () and o.stats().query_count == 0


@pytest.mark.parametrize("cap", [2.5, 10.0, False, "7"])
def test_budget_that_is_not_an_int_rejected(cap):
    with pytest.raises(ValueError, match="non-negative integer"):
        LocalMQOracle(TARGET, [P("+++")], q=1, query_cap=cap)


class CountingTarget:
    def __init__(self, concept):
        self.n, self.concept, self.calls = concept.n, concept, 0

    def label(self, mask):
        self.calls += 1
        return self.concept.label(mask)


def test_repeated_query_is_evaluated_once():
    target = CountingTarget(TARGET)
    o = LocalMQOracle(target, [P("+++")], q=1)
    for _ in range(3):
        o.query(P("++-"))
    o.ask(P("++-").mask, 4)
    assert target.calls == 1
    assert o.stats().query_count == 7


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 4)), max_size=12))
def test_ask_counts_like_repeated_queries(batches):
    # Every point of the 3-cube lies within 1 of one of the anchors.
    anchors = [P("+++"), P("---")]
    batched = LocalMQOracle(TARGET, anchors, q=1)
    pointwise = LocalMQOracle(TARGET, anchors, q=1)
    for mask, times in batches:
        answers = {pointwise.query(CubePoint(3, mask)) for _ in range(times)}
        assert answers == {batched.ask(mask, times)}
    assert batched.stats() == pointwise.stats()
    assert batched.log == pointwise.log
    histogram = Counter()
    for mask, times in batches:
        histogram[min((mask ^ a.mask).bit_count() for a in anchors)] += times
    assert batched.stats().distance_histogram == histogram
    assert batched.stats().query_count == sum(times for _, times in batches)
    assert [(rec.point.mask, times) for rec, times in batched.records()] == [
        (mask, sum(t for m, t in batches if m == mask)) for mask in dict.fromkeys(m for m, _ in batches)
    ]


def test_log_groups_repeats_by_first_asking():
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    for z in ("++-", "-++", "++-"):
        o.query(P(z))
    log = o.log
    assert [rec.point.to_string() for rec in log] == ["++-", "++-", "-++"]
    assert log[0] is log[1]


def test_default_budget_is_polynomial():
    anchors = [P("+++"), P("---")]
    o = LocalMQOracle(TARGET, anchors, q=1)
    assert o.query_cap == 64 * 3 * 2


def test_answers_equal_target_everywhere_reachable():
    anchors = [P("+++"), P("---")]
    o = LocalMQOracle(TARGET, anchors, q=3)
    for a in anchors:
        for j in range(1, 4):
            z = a.flip(j)
            assert o.query(z) == TARGET.evaluate(z)


def test_stats_fresh_and_after_queries():
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    s = o.stats()
    assert (s.query_count, s.max_locality, s.distance_histogram) == (0, 0, {})
    o.query(P("++-"))
    s = o.stats()
    assert (s.query_count, s.max_locality, s.distance_histogram) == (1, 1, {1: 1})


def test_repeated_queries_logged_each_time():
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    o.query(P("++-"))
    o.query(P("++-"))
    assert o.stats().query_count == 2


def test_log_jsonl_format():
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    o.query(P("-++"))
    record = json.loads(o.log_jsonl())
    assert record == {"query": "-++", "answer": 0, "dist": 1}


def test_min_distance_strategies_agree():
    # Small anchor sets scan; large ones walk the ball. Same answers.
    target = DnfFormula(6, (Term.of(1),))
    anchors = [CubePoint(6, m) for m in range(40)]
    assert 2 <= ball_size(6, 2) < len(anchors)
    for subset in (anchors[:2], anchors):
        oracle = LocalMQOracle(target, subset, q=2, query_cap=1 << 10)
        for z in enumerate_cube(6):
            brute = min((z.mask ^ a.mask).bit_count() for a in subset)
            if brute <= 2:
                assert oracle.query(z) == target.evaluate(z)
                assert oracle.log[-1].distance == brute
            else:
                with pytest.raises(LocalityViolation) as err:
                    oracle.query(z)
                assert err.value.min_distance == brute


def _state(oracle):
    return oracle.entries(), oracle.records(), oracle.stats(), oracle._count


@st.composite
def flip_batches(draw, walk):
    """An oracle setting and a run of (centre, times) batches, centres often anchors and repeated."""
    q = draw(st.sampled_from((0, 1, 2)))
    n = draw(st.integers(3, 6))
    cube = st.integers(0, (1 << n) - 1)
    ball = ball_size(n, q)
    if walk:
        anchors = draw(st.sets(cube, min_size=ball + 1, max_size=1 << n))
    else:
        anchors = draw(st.sets(cube, max_size=ball))
    centre = st.sampled_from(sorted(anchors)) | cube if anchors else cube
    pool = draw(st.lists(centre, min_size=1, max_size=4))
    calls = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=8))
    cap = draw(st.none() | st.integers(0, n * sum(times for _, times in calls)))
    target = random_dnf(n, 2, 3, random.Random(draw(st.integers(0, 1 << 30))))
    return target, [CubePoint(n, m) for m in sorted(anchors)], q, calls, cap


@pytest.mark.parametrize("walk", [False, True], ids=["scan", "walk"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ask_flips_matches_sequential_asks(walk, data):
    target, anchors, q, calls, cap = data.draw(flip_batches(walk))
    n = target.n
    batched = LocalMQOracle(target, anchors, q, query_cap=cap)
    sequential = LocalMQOracle(target, anchors, q, query_cap=cap)
    assert batched._index.walk == walk
    for centre, times in calls:
        try:
            expected = [sequential.ask(centre ^ (1 << (n - j)), times) for j in range(1, n + 1)]
        except (BudgetExhausted, LocalityViolation) as err:
            with pytest.raises(type(err)) as raised:
                batched.ask_flips(centre, times)
            assert str(raised.value) == str(err)
            break
        assert batched.ask_flips(centre, times) == expected
        assert _state(batched) == _state(sequential)
    assert _state(batched) == _state(sequential)


def test_ask_flips_records_anchor_neighbours_at_distance_zero():
    o = LocalMQOracle(TARGET, [P("+++"), P("++-")], q=1)
    assert o.ask_flips(P("+++").mask, 2) == [0, 0, 1]
    assert [(rec.point.to_string(), rec.distance, times) for rec, times in o.records()] == [
        ("-++", 1, 2), ("+-+", 1, 2), ("++-", 0, 2),
    ]
    assert o.stats() == OracleStats(6, 1, {1: 4, 0: 2})


def test_ball_walk_at_width_matches_brute_force():
    # Far more anchors than points of a 2-ball in 28 dimensions: the index walks
    # the ball. Queries two and three flips from an anchor check the walk's
    # distances and refusals against a scan of every anchor.
    n, q = 28, 2
    rng = random.Random(28)
    masks = [rng.getrandbits(n) for _ in range(5000)]
    target = DnfFormula(n, (Term.of(1, -2), Term.of(3, 27, -28)))
    oracle = LocalMQOracle(target, [CubePoint(n, m) for m in masks], q)
    assert oracle._index.walk
    answered, refused = Counter(), Counter()
    for i in range(300):
        z = rng.choice(masks)
        for p in rng.sample(range(n), 2 + i % 2):
            z ^= 1 << p
        brute = min((z ^ m).bit_count() for m in masks)
        if brute <= q:
            assert oracle.ask(z) == target.label(z)
            assert {mask: d for mask, _, d, _ in oracle.entries()}[z] == brute
            answered[brute] += 1
        else:
            with pytest.raises(LocalityViolation) as err:
                oracle.ask(z)
            assert err.value.min_distance == brute
            refused[brute] += 1
    assert answered[2] > 100 and refused[3] > 100


@st.composite
def repeated_training_samples(draw, walk):
    """A target and two samples drawing a few distinct points many times each.

    Every distinct point is drawn, so the oracle's anchor count and with it
    its ``AnchorIndex`` mode are fixed by ``walk``.
    """
    q = draw(st.sampled_from((0, 1, 2)))
    n = draw(st.integers(3, 6))
    cube, ball = st.integers(0, (1 << n) - 1), ball_size(n, q)
    if walk:
        points = draw(st.sets(cube, min_size=ball + 1, max_size=1 << n))
    else:
        points = draw(st.sets(cube, min_size=1, max_size=ball))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    draws = draw(st.permutations([m for m, r in zip(sorted(points), repeats) for _ in range(r)]))
    cut = draw(st.integers(0, len(draws)))
    target = random_dnf(n, 2, 3, random.Random(draw(st.integers(0, 1 << 30))))
    s1, s2 = (
        LabeledSample(n, tuple(masks), tuple(map(target.label, masks))) for masks in (draws[:cut], draws[cut:])
    )
    cap = draw(st.none() | st.integers(0, n * len(draws)))
    return target, q, s1, s2, cap


def _learn(s1, s2, oracle):
    try:
        return learn_evident_dnf_run(s1, s2, oracle).formula
    except (BudgetExhausted, LocalityViolation) as err:
        return type(err), str(err)


@pytest.mark.parametrize("walk", [False, True], ids=["scan", "walk"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_for_samples_matches_one_anchor_per_draw(walk, data):
    # The reference anchors the oracle at every draw, repeats included.
    target, q, s1, s2, cap = data.draw(repeated_training_samples(walk))
    deduplicated = LocalMQOracle.for_samples(target, q, s1, s2, query_cap=cap)
    reference = LocalMQOracle(target, [x for s in (s1, s2) for x, _ in s], q, query_cap=cap)
    assert deduplicated._index.walk == reference._index.walk == walk
    assert deduplicated.query_cap == reference.query_cap
    assert _learn(s1, s2, deduplicated) == _learn(s1, s2, reference)
    assert deduplicated.entries() == reference.entries()
    assert deduplicated.stats() == reference.stats()


def test_for_samples_cap_counts_repeated_draws():
    s = LabeledSample(3, (7,) * 10, (1,) * 10)
    assert LocalMQOracle.for_samples(TARGET, 1, s).query_cap == 64 * 3 * 10
    assert LocalMQOracle.for_samples(TARGET, 1, s, query_cap=5).query_cap == 5


@pytest.mark.parametrize("n", [2, 4])
def test_for_samples_refuses_a_sample_of_another_dimension(n):
    good, other = LabeledSample(3, (7,), (1,)), LabeledSample(n, (1,), (0,))
    for samples in ((other,), (good, other), (other, good)):
        with pytest.raises(DimensionMismatch, match=f"sample dimension {n} differs from target 3"):
            LocalMQOracle.for_samples(TARGET, 1, *samples)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    points=st.lists(st.integers(0, 255), min_size=1, max_size=5, unique=True),
    uniform=st.booleans(),
    m=st.integers(0, 400),
    seed=st.integers(0, 1 << 30),
)
def test_draw_training_set_matches_pointwise_reference(n, points, uniform, m, seed):
    target = random_dnf(n, 2, 3, random.Random(seed))
    if uniform:
        dist = UniformCube(n)
    else:
        masks = sorted({p % (1 << n) for p in points})
        dist = FiniteSupport(n, tuple((CubePoint(n, p), Fraction(1, len(masks))) for p in masks))
    reference = [(CubePoint(n, x), target.evaluate(CubePoint(n, x))) for x in sample(dist, m, seed)]
    assert list(draw_training_set(dist, target, m, seed)) == reference
