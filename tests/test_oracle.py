import ast
import copy
import dataclasses
import inspect
import pickle
import random
import re
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lmqlab
from cubes import cube_points
from lmqlab import oracle
from lmqlab.concepts import DnfFormula, MaskConcept, Term, random_dnf
from lmqlab.cube import CubePoint, DimensionMismatch, ReplicateMap, ball_size
from lmqlab.distributions import (
    _DRAW_BLOCK,
    FiniteSupport,
    LabeledSample,
    ProductDist,
    UniformCube,
    pushforward,
    sample,
    sample_indices,
)
from lmqlab.harness import doubled_tree_family
from lmqlab.learner import learn_evident_dnf_run
from lmqlab.oracle import (
    BudgetExhausted,
    LocalityViolation,
    LocalMQOracle,
    OracleStats,
    draw_training_set,
    label_masks,
)
from fractions import Fraction

from test_distributions import _Ticks, _reference_draws, finite_supports


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


TARGET = DnfFormula(3, (Term.of(1, 2),))


def test_draw_empty():
    s = draw_training_set(UniformCube(3), TARGET, 0, seed=1)
    assert len(s) == 0


def test_draw_point_mass():
    dist = FiniteSupport(3, ((P("++-").mask, Fraction(1)),))
    s = draw_training_set(dist, TARGET, 4, seed=1)
    assert (s.n, s.masks, s.labels) == (3, (P("++-").mask,) * 4, b"\x01" * 4)
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
        FiniteSupport(3, ((P("++-").mask, Fraction(1, 4)), (P("+-+").mask, Fraction(3, 4)))),
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


TARGET4 = DnfFormula(4, (Term.of(1, 2),))


class _PartialTarget(MaskConcept):
    """TARGET4's labels, except at mask 9, which has none: labelling it raises ``KeyError``."""

    n = 4

    def label(self, mask):
        if mask == 9:
            raise KeyError(mask)
        return TARGET4.label(mask)


# Dyadic masses in 256ths give a top-byte table; thirds split top bytes, so those draws bisect.
_TABLE = FiniteSupport(4, ((3, Fraction(127, 256)), (9, Fraction(1, 256)), (12, Fraction(1, 2))))
_DRAWN = {  # (distribution, labeller, drawn by point index)
    "uniform-index": (UniformCube(4), DnfFormula(4, (Term.of(1, -2),)), True),
    "uniform-sample": (UniformCube(9), DnfFormula(9, (Term.of(1, -2),)), False),
    "finite-table": (_TABLE, DnfFormula(4, (Term.of(3),)), True),
    "finite-bisection": (FiniteSupport(4, tuple((x, Fraction(1, 3)) for x in (3, 5, 12))), TARGET4, False),
    "unlabelled-fallback": (_TABLE, _PartialTarget(), True),
}
_BUILT = {
    "built-list": lambda: LabeledSample(4, [3, 12, 3], [1, 0, 1]),
    "built-tuple": lambda: LabeledSample(4, (3, 12, 3), (1, 0, 1)),
    "built-bytes": lambda: LabeledSample(4, (3, 12, 3), b"\1\0\1"),
}


def _drawn_sample(dist, labeller, indexed):
    """64 draws at the first seed that never draws mask 9, by the path ``indexed`` names."""
    seed = next(seed for seed in range(64) if 9 not in sample(dist, 64, seed))
    assert (sample_indices(dist, 64, seed) is not None) == indexed
    return draw_training_set(dist, labeller, 64, seed)


@pytest.mark.parametrize(
    "build",
    [lambda source=source: _drawn_sample(*source) for source in _DRAWN.values()] + list(_BUILT.values()),
    ids=[*_DRAWN, *_BUILT],
)
def test_every_sample_holds_a_mask_tuple_and_label_bytes(build):
    s = build()
    assert type(s.masks) is tuple and type(s.labels) is bytes and len(s.labels) == len(s.masks)
    twins = LabeledSample(s.n, list(s.masks), list(s.labels)), LabeledSample(s.n, s.masks, tuple(s.labels))
    for twin in twins:
        assert twin == s and hash(twin) == hash(s)
    # The learner gives one run on the sample and on its twin rebuilt from tuple labels.
    target = DnfFormula(s.n, (Term.of(1, -2), Term.of(3)))
    runs = [learn_evident_dnf_run(t, t, LocalMQOracle.for_samples(target, 1, t)) for t in (s, twins[1])]
    untimed = [dataclasses.replace(run, phase1_seconds=0, phase2_seconds=0) for run in runs]
    assert untimed[0] == untimed[1]


def test_the_unlabelled_fallback_source_cannot_label_its_support():
    with pytest.raises(KeyError):
        label_masks(_PartialTarget(), [x for x, _ in _TABLE.support()])


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


@pytest.mark.parametrize("mask", [True, 1.0])
def test_ask_flips_refuses_a_mask_ask_refuses(mask):
    # Anchored at mask 1, where True and 1.0 would match the anchor and be answered as mask 1.
    o = LocalMQOracle(TARGET, [P("--+")], q=1)
    for ask in (o.ask, o.ask_flips):
        with pytest.raises(DimensionMismatch, match=f"query mask {mask!r} out of range for dimension 3"):
            ask(mask)
    assert o.log == () and o.stats().query_count == 0


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


@pytest.mark.parametrize("bad", [1, 1 << 40, "+++", None, (3, 5)], ids=["1", "2^40", "str", "None", "tuple"])
def test_anchor_that_is_not_a_point_is_one_value_error(bad):
    for anchors in ([bad, 2], [P("+++"), bad]):
        with pytest.raises(ValueError) as exc:
            LocalMQOracle(TARGET, anchors, 1)
        assert exc.type is ValueError and str(exc.value) == f"anchor {bad!r} is not a CubePoint"


@pytest.mark.parametrize("q", [1.5, 1.0, True, False, "1", None])
def test_locality_budget_that_is_not_an_int_rejected(q):
    with pytest.raises(ValueError, match=f"^locality budget must be non-negative, got {q!r}$"):
        LocalMQOracle(TARGET, [P("+++")], q=q)


class CountingTarget(MaskConcept):
    """A concept that counts its ``label`` calls; its ``flip_labels`` is the n-call default."""

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
    assert [(mask, times) for mask, _, _, times in batched.entries()] == [
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


def test_min_distance_strategies_agree():
    # A sparse anchor set and a dense one, with more anchors than a 2-ball has points.
    target = DnfFormula(6, (Term.of(1),))
    anchors = [CubePoint(6, m) for m in range(40)]
    assert 2 <= ball_size(6, 2) < len(anchors)
    for subset in (anchors[:2], anchors):
        oracle = LocalMQOracle(target, subset, q=2, query_cap=1 << 10)
        for z in cube_points(6):
            brute = min((z.mask ^ a.mask).bit_count() for a in subset)
            if brute <= 2:
                assert oracle.query(z) == target.evaluate(z)
                assert oracle.log[-1].distance == brute
            else:
                with pytest.raises(LocalityViolation) as err:
                    oracle.query(z)
                assert err.value.min_distance == brute


def _state(oracle):
    return oracle.entries(), oracle.stats(), oracle._count


@st.composite
def flip_batches(draw, dense):
    """An oracle setting and a run of (centre, times) batches, centres often anchors and repeated.

    A dense anchor set has more anchors than a q-ball has points, a sparse one at most as many.
    """
    q = draw(st.sampled_from((0, 1, 2)))
    n = draw(st.integers(3, 6))
    cube = st.integers(0, (1 << n) - 1)
    ball = ball_size(n, q)
    if dense:
        anchors = draw(st.sets(cube, min_size=ball + 1, max_size=1 << n))
    else:
        anchors = draw(st.sets(cube, max_size=ball))
    centre = st.sampled_from(sorted(anchors)) | cube if anchors else cube
    pool = draw(st.lists(centre, min_size=1, max_size=4))
    calls = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=8))
    cap = draw(st.none() | st.integers(0, n * sum(times for _, times in calls)))
    target = random_dnf(n, 2, 3, random.Random(draw(st.integers(0, 1 << 30))))
    return target, [CubePoint(n, m) for m in sorted(anchors)], q, calls, cap


@pytest.mark.parametrize("dense", [False, True], ids=["scan", "walk"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ask_flips_matches_sequential_asks(dense, data):
    target, anchors, q, calls, cap = data.draw(flip_batches(dense))
    n = target.n
    batched = LocalMQOracle(target, anchors, q, query_cap=cap)
    sequential = LocalMQOracle(target, anchors, q, query_cap=cap)
    for centre, times in calls:
        try:
            expected = sum(sequential.ask(centre ^ (1 << (n - j)), times) << (n - j) for j in range(1, n + 1))
        except (BudgetExhausted, LocalityViolation) as err:
            with pytest.raises(type(err)) as raised:
                batched.ask_flips(centre, times)
            assert str(raised.value) == str(err)
            break
        assert batched.ask_flips(centre, times) == expected
        assert _state(batched) == _state(sequential)
    assert _state(batched) == _state(sequential)


def _batch_state(oracle):
    stats = oracle.stats()
    return oracle.entries(), stats, list(stats.distance_histogram.items()), stats.query_count


def _assert_many_is_the_loop(target, anchors, q, cap, rounds):
    """``ask_flips_many`` on one oracle against the ``ask_flips`` loop on its twin, round by round: the same
    answers and state, or the same error with the same state recorded up to it."""
    many = LocalMQOracle(target, anchors, q, query_cap=cap)
    loop = LocalMQOracle(target, anchors, q, query_cap=cap)
    for counts in rounds:
        try:
            expected = [loop.ask_flips(x, times) for x, times in counts.items()]
        except (BudgetExhausted, LocalityViolation, ValueError) as err:
            with pytest.raises(type(err)) as raised:
                many.ask_flips_many(counts)
            assert raised.type is type(err) and str(raised.value) == str(err)
            assert _batch_state(many) == _batch_state(loop)
            return
        assert many.ask_flips_many(counts) == expected
        assert _batch_state(many) == _batch_state(loop)


@st.composite
def flip_count_rounds(draw):
    """An oracle setting and rounds of centre -> times maps, often all anchors, sometimes with one bad key or value.

    Anchors fill up to the whole cube, so centres often neighbour anchors (distance-0 rows); the cap may run out
    in any round, and q = 0 refuses every flip.
    """
    q = draw(st.sampled_from((0, 1, 1, 2)))
    n = draw(st.integers(3, 6))
    cube = st.integers(0, (1 << n) - 1)
    anchors = sorted(draw(st.sets(cube, min_size=1, max_size=1 << n)))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        centre = st.sampled_from(anchors) if draw(st.booleans()) else st.sampled_from(anchors) | cube
        items = draw(st.lists(st.tuples(centre, st.integers(1, 3)), max_size=5, unique_by=lambda item: item[0]))
        spoil = draw(st.sampled_from((None, None, "mask", "times")))
        at = draw(st.integers(0, len(items)))
        if spoil == "mask":
            items.insert(at, (draw(st.sampled_from((True, False, 1.0, 2.5, -1, 1 << n))), 1))
        elif spoil == "times" and items:
            items[at - 1] = (items[at - 1][0], draw(st.sampled_from((0, -1, True, 2.0, "2"))))
        rounds.append(dict(items))
    total = sum(times for counts in rounds for times in counts.values() if type(times) is int and times > 0)
    cap = draw(st.none() | st.integers(0, n * total))
    target = random_dnf(n, 2, 3, random.Random(draw(st.integers(0, 1 << 30))))
    return target, [CubePoint(n, m) for m in anchors], q, cap, rounds


@settings(max_examples=150, deadline=None)
@given(setting=flip_count_rounds())
def test_ask_flips_many_is_the_ask_flips_loop(setting):
    _assert_many_is_the_loop(*setting)


class RaisingAt(MaskConcept):
    """A concept whose ``label`` raises at one mask, as a polynomial off +-1 does."""

    def __init__(self, concept, bad):
        self.n, self.concept, self.bad = concept.n, concept, bad

    def label(self, mask):
        if mask == self.bad:
            raise ValueError(f"no label at {mask}")
        return self.concept.label(mask)


# Masks of TARGET's 3-cube: +++ is 7, ++- is 6, -++ is 3, --+ is 1, --- is 0.
BATCH_CASES = {
    "q0": (TARGET, [7, 6], 0, None, [{7: 1}]),
    "non-anchor-answered": (TARGET, [7, 6, 0], 1, None, [{7: 1, 3: 2}]),
    "non-anchor-refused": (TARGET, [7], 1, None, [{7: 1, 0: 2, 6: 1}]),
    "budget-mid-batch": (TARGET, [7, 6], 1, 5, [{7: 1, 6: 1}]),
    "budget-next-round": (TARGET, [7, 6], 1, 10, [{7: 2}, {6: 1, 7: 1}]),
    "neighbouring-anchors": (TARGET, [7, 6, 0], 1, None, [{7: 2, 6: 1, 0: 3}, {6: 2, 1: 1}]),
    "bool-mask": (TARGET, [1, 7], 1, None, [{7: 1, True: 1}]),
    "float-mask": (TARGET, [1, 7], 1, None, [{7: 1, 1.0: 1}]),
    "bool-times": (TARGET, [1, 7], 1, None, [{7: 1, 1: True}]),
    "float-times": (TARGET, [1, 7], 1, None, [{7: 1, 1: 2.0}]),
    "target-raises": (RaisingAt(TARGET, 7), [7, 6, 0], 1, None, [{0: 1, 7: 2, 6: 1}]),  # 7 is a flip of 6 alone
    "empty": (TARGET, [7], 0, 0, [{}]),
}


@pytest.mark.parametrize("case", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_ask_flips_many_named_cases_are_the_ask_flips_loop(case):
    target, anchors, q, cap, rounds = case
    _assert_many_is_the_loop(target, [CubePoint(3, m) for m in anchors], q, cap, rounds)


@st.composite
def accounting_runs(draw):
    """An oracle setting and a run of ``ask``, ``ask_flips`` and ``ask_flips_many`` calls on any mask of the cube,
    so some are refused as not q-local; the cap may run out at any call, and the target may raise at one mask."""
    n = draw(st.integers(2, 6))
    q = draw(st.sampled_from((0, 1, 1, 2)))
    cube = st.integers(0, (1 << n) - 1)
    anchors = sorted(draw(st.sets(cube, min_size=1, max_size=1 << n)))
    point, times = st.sampled_from(anchors) | cube, st.integers(1, 3)
    call = st.one_of(
        st.tuples(st.sampled_from(("ask", "ask_flips")), point, times),
        st.tuples(st.just("ask_flips_many"), st.dictionaries(point, times, max_size=5)),
    )
    calls = draw(st.lists(call, min_size=1, max_size=10))
    cap = draw(st.none() | st.integers(0, 3 * n * len(calls)))
    target = random_dnf(n, 2, 3, random.Random(draw(st.integers(0, 1 << 30))))
    bad = draw(st.none() | cube)
    return target if bad is None else RaisingAt(target, bad), anchors, q, cap, calls


@settings(max_examples=100, deadline=None)
@given(setting=accounting_runs())
@example(setting=(TARGET, [0], 2, None, [("ask", 0b011, 1), ("ask", 0b001, 1)]))  # distance 2 asked before 1
def test_stats_are_the_sums_of_entries_after_every_call_refused_or_not(setting):
    target, anchors, q, cap, calls = setting
    oracle = LocalMQOracle.from_masks(target, anchors, q, query_cap=cap)
    for name, *args in calls:
        try:
            getattr(oracle, name)(*args)
        except (LocalityViolation, BudgetExhausted, ValueError):
            pass  # a refusal, a spent budget or the target raising: whatever was recorded must still add up
        stats, histogram = oracle.stats(), Counter()
        for _, _, distance, times in oracle.entries():
            histogram[distance] += times
        assert stats.query_count == sum(histogram.values())
        assert stats.distance_histogram == histogram
        assert list(stats.distance_histogram) == sorted(histogram)
        assert stats.max_locality == max(histogram, default=0)


def test_ask_flips_many_answers_an_anchored_batch_in_one_pass():
    target = CountingTarget(TARGET)
    o = LocalMQOracle(target, [P("+++"), P("++-"), P("---")], q=1)
    o.ask, o.ask_flips = None, None  # a proven batch calls neither
    assert o.ask_flips_many({7: 2, 6: 1, 0: 3}) == [TARGET.flip_labels(m) for m in (7, 6, 0)]
    assert target.calls == 3 * 3  # one flip_labels per new centre, n labels each
    # +++ and ++- are each other's flip; --- neighbours no anchor.
    assert o.stats() == OracleStats(18, 1, {0: 3, 1: 15})
    assert list(o.stats().distance_histogram) == [0, 1]
    assert o.ask_flips_many({6: 1}) == [TARGET.flip_labels(6)] and target.calls == 9
    assert o.stats() == OracleStats(21, 1, {0: 4, 1: 17})


def test_ask_flips_records_anchor_neighbours_at_distance_zero():
    o = LocalMQOracle(TARGET, [P("+++"), P("++-")], q=1)
    assert o.ask_flips(P("+++").mask, 2) == 0b001
    assert [(CubePoint(3, mask).to_string(), distance, times) for mask, _, distance, times in o.entries()] == [
        ("-++", 1, 2), ("+-+", 1, 2), ("++-", 0, 2),
    ]
    assert o.stats() == OracleStats(6, 1, {1: 4, 0: 2})


def test_batches_around_centres_at_distance_two_share_their_common_flips():
    # Centres 0000 and 0011 share the flips 0001 (an anchor) and 0010.
    target = DnfFormula(4, (Term.of(4), Term.of(1, 2)))
    o = LocalMQOracle(target, [CubePoint(4, m) for m in (0b0000, 0b0011, 0b0001)], q=1)
    assert o.ask_flips(0b0000, 2) == 0b0001
    assert o.ask_flips(0b0011, 3) == 0b1110
    rows = {mask: (answer, distance, times) for mask, answer, distance, times in o.entries()}
    assert [mask for mask, *_ in o.entries()] == [0b1000, 0b0100, 0b0010, 0b0001, 0b1011, 0b0111]
    assert rows[0b0001] == (1, 0, 5) and rows[0b0010] == (0, 1, 5)
    assert rows[0b1000] == (0, 1, 2) and rows[0b1011] == (1, 1, 3)
    assert o.stats() == OracleStats(20, 1, {1: 15, 0: 5})
    expected = [0b1000] * 2 + [0b0100] * 2 + [0b0010] * 5 + [0b0001] * 5 + [0b1011] * 3 + [0b0111] * 3
    assert [rec.point.mask for rec in o.log] == expected


def test_ask_of_a_flip_a_batch_answered_merges_into_its_row():
    target = DnfFormula(4, (Term.of(1, -2),))
    anchors = [CubePoint(4, m) for m in (0b1100, 0b1101)]
    o = LocalMQOracle(target, anchors, q=1)
    assert o.ask_flips(0b1100) == 0b0100
    assert [o.ask(0b0100, 2), o.ask(0b1101), o.ask(0b1000)] == [0, 0, 1]
    assert [row for row in o.entries() if row[0] in (0b0100, 0b1101)] == [(0b0100, 0, 1, 3), (0b1101, 0, 0, 2)]
    assert o.stats() == OracleStats(8, 1, {1: 6, 0: 2})
    assert o.ask(0b1111) == 0


def test_stats_histogram_is_a_copy():
    o = LocalMQOracle(TARGET, [P("+++")], q=1)
    o.ask_flips(P("+++").mask)
    o.stats().distance_histogram[1] = 99
    o.stats().distance_histogram[5] = 1
    assert o.stats() == OracleStats(3, 1, {1: 3})


def test_ball_walk_at_width_matches_brute_force():
    # Far more anchors than points of a 2-ball in 28 dimensions. Queries two and
    # three flips from an anchor check the oracle's distances and refusals
    # against a brute-force minimum over every anchor.
    n, q = 28, 2
    rng = random.Random(28)
    masks = [rng.getrandbits(n) for _ in range(5000)]
    target = DnfFormula(n, (Term.of(1, -2), Term.of(3, 27, -28)))
    oracle = LocalMQOracle(target, [CubePoint(n, m) for m in masks], q)
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
def repeated_training_samples(draw, dense):
    """A target and two samples drawing a few distinct points many times each.

    Every distinct point is drawn, so the oracle has more anchors than a
    q-ball has points exactly when ``dense``.
    """
    q = draw(st.sampled_from((0, 1, 2)))
    n = draw(st.integers(3, 6))
    cube, ball = st.integers(0, (1 << n) - 1), ball_size(n, q)
    if dense:
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


@pytest.mark.parametrize("dense", [False, True], ids=["scan", "walk"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_for_samples_matches_one_anchor_per_draw(dense, data):
    # The reference anchors the oracle at every draw, repeats included.
    target, q, s1, s2, cap = data.draw(repeated_training_samples(dense))
    deduplicated = LocalMQOracle.for_samples(target, q, s1, s2, query_cap=cap)
    reference = LocalMQOracle(target, [x for s in (s1, s2) for x, _ in s], q, query_cap=cap)
    assert deduplicated._anchors == reference._anchors
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
        with pytest.raises(DimensionMismatch, match=f"^sample has dimension {n}, expected 3$"):
            LocalMQOracle.for_samples(TARGET, 1, *samples)


@st.composite
def mask_anchored_calls(draw):
    """An oracle setting with anchor masks (repeats allowed) and a run of ask, ask_flips and ask_flips_many calls.

    Centres are often anchors, a call may carry a bad mask or times, q and the cap may be refused, and the cap may
    run out at any call.
    """
    n = draw(st.integers(1, 6))
    cube = st.integers(0, (1 << n) - 1)
    masks = draw(st.lists(cube, max_size=6))
    point = st.sampled_from(masks) | cube if masks else cube
    mask = point | st.sampled_from((True, 1.0, -1, 1 << n))
    times = st.integers(1, 3) | st.sampled_from((0, True, 2.0))
    call = st.one_of(
        st.tuples(st.sampled_from(("ask", "ask_flips")), mask, times),
        st.tuples(st.just("ask_flips_many"), st.dictionaries(point, times, max_size=4)),
    )
    calls = draw(st.lists(call, min_size=1, max_size=8))
    q = draw(st.sampled_from((0, 1, 1, 2, -1, 1.0)))
    cap = draw(st.none() | st.integers(0, 8 * n) | st.sampled_from((-1, 2.5, False)))
    target = random_dnf(n, 2, 3, random.Random(draw(st.integers(0, 1 << 30))))
    return target, masks, q, cap, calls


def _outcome(call):
    try:
        return call(), None
    except (BudgetExhausted, LocalityViolation, ValueError) as err:
        return None, (type(err), str(err))


@settings(max_examples=100, deadline=None)
@given(setting=mask_anchored_calls())
def test_from_masks_is_the_constructor_on_cube_points(setting):
    target, masks, q, cap, calls = setting
    by_masks, refused = _outcome(lambda: LocalMQOracle.from_masks(target, masks, q, cap))
    by_points, expected = _outcome(lambda: LocalMQOracle(target, [CubePoint(target.n, m) for m in masks], q, cap))
    assert refused == expected
    if expected:
        return
    assert by_masks.query_cap == by_points.query_cap
    for name, *args in calls:
        assert _outcome(lambda: getattr(by_masks, name)(*args)) == _outcome(lambda: getattr(by_points, name)(*args))
        assert _batch_state(by_masks) == _batch_state(by_points)


def test_from_masks_default_cap_counts_every_anchor_given():
    assert [LocalMQOracle.from_masks(TARGET, masks, 1).query_cap for masks in ([], [7], [7, 7, 0])] == [192, 192, 576]
    assert LocalMQOracle.from_masks(TARGET, [7], 1, query_cap=5).query_cap == 5


@pytest.mark.parametrize("bad", [True, 1.0, -1, 1 << 3, "3"], ids=["True", "1.0", "-1", "2^n", "str"])
def test_from_masks_refuses_an_anchor_that_is_not_a_mask_in_range(bad):
    target = CountingTarget(TARGET)
    message = f"anchor mask {bad!r} out of range for dimension 3"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        LocalMQOracle.from_masks(target, [7, bad, 0], 1)
    assert target.calls == 0


class NoIntersection(frozenset):
    """An anchor set that fails the test if a one-anchor oracle intersects it."""

    def intersection(self, *others):
        raise AssertionError("a one-anchor oracle intersected its anchors")


ONE_FLIP_BATCHES = {
    "ask_flips": lambda o, x: o.ask_flips(x),
    "ask_flips_many": lambda o, x: o.ask_flips_many({x: 1})[0],
}


@pytest.mark.parametrize("batch", ONE_FLIP_BATCHES.values(), ids=ONE_FLIP_BATCHES.keys())
def test_one_anchor_oracle_counts_its_flips_at_distance_one_without_intersecting(batch):
    o = LocalMQOracle.from_masks(TARGET, [7], 1)
    o._anchors = NoIntersection(o._anchors)
    assert batch(o, 7) == TARGET.flip_labels(7)
    assert o.stats() == OracleStats(3, 1, {1: 3})
    # The batch recorded 0 flips at distance 0, and keys come out in ascending distance, so 0 comes first
    # once the centre is asked.
    assert o.ask(7) == 1 and list(o.stats().distance_histogram.items()) == [(0, 1), (1, 3)]
    # Anchored at a point and one neighbour, the neighbour is still counted at distance 0.
    o = LocalMQOracle.from_masks(TARGET, [7, 6], 1)
    assert batch(o, 7) == TARGET.flip_labels(7)
    assert list(o.stats().distance_histogram.items()) == [(0, 1), (1, 2)]


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
        dist = FiniteSupport(n, tuple((p, Fraction(1, len(masks))) for p in masks))
    reference = [(CubePoint(n, x), target.evaluate(CubePoint(n, x))) for x in sample(dist, m, seed)]
    assert list(draw_training_set(dist, target, m, seed)) == reference


_SKIPPED_CHECK_DISTS = [
    *(UniformCube(n) for n in (1, 8, 32, 33)),
    ProductDist(5, (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1))),
    FiniteSupport(6, ((0, Fraction(1, 6)), (21, Fraction(1, 2)), (63, Fraction(1, 3)))),
    pushforward(UniformCube(4), ReplicateMap(4, 2)),
]


@pytest.mark.parametrize("m", [0, 1, 4097])
@pytest.mark.parametrize(
    "dist",
    _SKIPPED_CHECK_DISTS,
    ids=["uniform1", "uniform8", "uniform32", "uniform33", "product", "finite", "pushforward"],
)
def test_draw_training_set_builds_only_samples_the_constructor_accepts(dist, m):
    # draw_training_set skips LabeledSample's check; the validating constructor must accept what it builds.
    target = random_dnf(dist.n, 3, 3, random.Random(dist.n * 7919 + m))
    s = draw_training_set(dist, target, m, seed=m + 11)
    assert len(s) == m and set(map(type, s.masks)) <= {int} and set(map(type, s.labels)) <= {int}
    assert set(s.labels) <= {0, 1}
    assert s == LabeledSample(dist.n, s.masks, s.labels)
    assert s.masks == tuple(sample(dist, m, seed=m + 11))


def _weighted_support(n: int, count: int, seed: int) -> FiniteSupport:
    """``count`` distinct points of the n-cube with weights 1-20, so masses such as 7/2593 split top bytes."""
    rng = random.Random(seed)
    weights = {x: rng.randint(1, 20) for x in rng.sample(range(1 << n), count)}
    total = sum(weights.values())
    return FiniteSupport(n, tuple((x, Fraction(w, total)) for x, w in weights.items()))


def _split_top_bytes(dist: FiniteSupport) -> list[int]:
    """The top bytes t of random()'s first word under which ``_reference_draws`` draws two masses apart: its draws
    at the ends of t's values, t << 45 and (t + 1 << 45) - 1 over 2**53, differ."""
    ends = _reference_draws(dist, 512, _Ticks(v for t in range(256) for v in (t << 45, (t + 1 << 45) - 1)))
    return [t for t in range(256) if ends[2 * t] != ends[2 * t + 1]]


_RARE = Fraction(1, 20000)
# Supports whose masses leave top bytes that name no one entry: only the bisection resolves their draws.
AMBIGUOUS_SUPPORTS = [
    FiniteSupport(4, ((0b1100, Fraction(1, 3)), (0b1010, Fraction(1, 3)), (0b0110, Fraction(1, 7)),
                      (0, Fraction(4, 21)))),
    FiniteSupport(5, ((3, Fraction(1, 3)), (9, _RARE), (17, Fraction(1, 7)), (30, Fraction(11, 21) - _RARE))),
]
INDEX_PATH_DISTS = st.one_of(
    st.integers(1, 10).map(UniformCube),
    st.integers(1, 8).map(lambda n: pushforward(UniformCube(n), ReplicateMap(n, 2))),
    finite_supports(),
    st.sampled_from([_weighted_support(9, 256, 1), _weighted_support(9, 257, 2), *AMBIGUOUS_SUPPORTS]),
)


def test_ambiguous_supports_leave_vague_top_bytes_and_slots():
    for dist in AMBIGUOUS_SUPPORTS:
        assert _split_top_bytes(dist) and sample_indices(dist, 1, 0) is None


@pytest.mark.parametrize("n", range(1, 9))
def test_doubled_tree_images_take_the_index_path(n):
    # learn-dense draws from these images: each dyadic support keeps its top-byte table, one translate per block.
    _, dist = doubled_tree_family(n, n)(0)
    assert len(dist._top) == 256 and sample_indices(dist, 1, 0) is not None


@settings(max_examples=80, deadline=None)
@given(dist=INDEX_PATH_DISTS, m=st.sampled_from([0, 1, 2, 4095, 4096, 4097]), seed=st.integers(0, 2**32))
def test_index_path_draws_and_labels_as_the_per_draw_reference(dist, m, seed):
    target = random_dnf(dist.n, 3, 3, random.Random(seed))
    masks = _reference_draws(dist, m, random.Random(seed))
    expected = LabeledSample(dist.n, tuple(masks), tuple(map(target.label, masks)))
    assert draw_training_set(dist, target, m, seed) == expected
    if isinstance(dist, FiniteSupport):
        small = len(dist.entries) <= 256 and not _split_top_bytes(dist)
    else:
        small = dist.n <= 8
    indexed = sample_indices(dist, m, seed)
    assert (indexed is not None) == small
    if small:
        points, idx = indexed
        drawn = draw_training_set(dist, target, m, seed).masks
        assert type(idx) is bytes and drawn == tuple(masks) == tuple(points[i] for i in idx)
    if small or isinstance(dist, FiniteSupport):
        # The index routine reads the generator as the per-draw reference does, to the same state.
        rng, ref = random.Random(seed), random.Random(seed)
        _reference_draws(dist, m, ref)
        dist._indices(rng, m)
        assert rng.getstate() == ref.getstate()


@settings(max_examples=60, deadline=None)
@given(
    dist=INDEX_PATH_DISTS.filter(lambda dist: sample_indices(dist, 0, 0) is not None),
    m=st.sampled_from([0, 1, _DRAW_BLOCK + 5]) | st.integers(2, 40),
    seed=st.integers(0, 2**32),
)
def test_index_path_sample_builds_its_masks_on_first_read_as_its_constructor_twin(dist, m, seed):
    # A sample drawn by index holds its draws' indices and builds the masks tuple on the first read; each operation
    # below runs on a fresh draw, so that it is the one to build them, and sees the constructor-built twin's form.
    # The index path: a UniformCube to n = 8, or a FiniteSupport with a top-byte table (a doubled cube, say).
    target = random_dnf(dist.n, 3, 3, random.Random(seed))
    masks = sample(dist, m, seed)
    twin = LabeledSample(dist.n, masks, tuple(map(target.label, masks)))

    def fresh() -> LabeledSample:
        drawn = draw_training_set(dist, target, m, seed)
        assert "masks" not in vars(drawn)
        return drawn

    assert fresh() == twin and twin == fresh() and hash(fresh()) == hash(twin)
    assert repr(fresh()) == repr(twin)
    drawn = fresh()
    assert len(drawn) == len(twin) == m and "masks" not in vars(drawn)
    assert list(iter(fresh())) == list(iter(twin))
    for copied in (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh()), dataclasses.replace(fresh())):
        assert copied == twin and hash(copied) == hash(twin) and repr(copied) == repr(twin)
    assert type(drawn.masks) is tuple and drawn.masks is drawn.masks and drawn.__dict__["masks"] is drawn.masks
    # Built, the tuple replaces the indices: a pickle or a copy carries one form.
    assert vars(drawn).keys() == {"n", "masks", "labels", "cover"} == vars(pickle.loads(pickle.dumps(drawn))).keys()
    with pytest.raises(AttributeError, match="^nope$"):
        getattr(fresh(), "nope")
    assert not hasattr(fresh(), "__deepcopy__")


def test_index_path_sample_first_read_racing_in_threads_always_finds_the_masks():
    # Four threads (more than the cores the suite targets) read a fresh sample's masks at once, with the interpreter
    # switching threads every microsecond; a reader that finds neither the index pair nor the stored tuple raises.
    dist, target = UniformCube(8), random_dnf(8, 3, 3, random.Random(0))
    want, found = tuple(sample(dist, 2000, 1)), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(600):
            drawn, start = draw_training_set(dist, target, 2000, 1), threading.Barrier(4, timeout=10)

            def read() -> None:
                start.wait()
                try:
                    found.append(drawn.masks == want)
                except AttributeError as exc:
                    found.append(exc)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert found == [True] * 2400


def test_drawn_sample_storage_lives_only_in_distributions():
    # ``distributions`` alone builds a drawn sample's two forms; ``draw_training_set`` only picks one and labels it.
    sources = sorted(Path(lmqlab.__file__).parent.glob("*.py"))
    pattern = re.compile(r"_indexed|LabeledSample\.__new__")
    assert [path.name for path in sources if pattern.search(path.read_text())] == ["distributions.py"]
    assert "__dict__" not in inspect.getsource(oracle)
    lines = inspect.getsource(draw_training_set).splitlines()
    body = lines[ast.parse("\n".join(lines)).body[0].body[0].end_lineno:]  # after the docstring
    assert len([lines[0], *(line for line in body if line.strip()[:1] not in ("", "#"))]) <= 10


@pytest.mark.parametrize(
    "dist",
    [UniformCube(3), AMBIGUOUS_SUPPORTS[0], _weighted_support(9, 257, 2), ProductDist(3, (Fraction(1, 3),) * 3)],
    ids=["uniform", "finite", "finite257", "product"],
)
def test_draw_training_set_refusals_keep_their_type_message_and_order(dist):
    target = random_dnf(dist.n, 2, 2, random.Random(0))
    for m in (-1, True, 2.0):
        with pytest.raises(ValueError) as raised:
            draw_training_set(dist, target, m, seed=0)
        assert type(raised.value) is ValueError and str(raised.value) == f"sample count must be non-negative, got {m!r}"
        # The dimension is checked first.
        with pytest.raises(DimensionMismatch) as raised:
            draw_training_set(dist, random_dnf(dist.n + 1, 2, 2, random.Random(0)), m, seed=0)
        assert str(raised.value) == f"concept has dimension {dist.n + 1}, expected {dist.n}"
