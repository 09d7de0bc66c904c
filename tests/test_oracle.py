import json

import pytest

from lmqlab.concepts import DnfFormula, Term
from lmqlab.cube import CubePoint, ball_size, enumerate_cube
from lmqlab.distributions import FiniteSupport, UniformCube
from lmqlab.oracle import (
    BudgetExhausted,
    LocalityViolation,
    LocalMQOracle,
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
    assert s.pairs == ((P("++-"), 1),) * 4


def test_draw_labels_match_target():
    s = draw_training_set(UniformCube(3), TARGET, 200, seed=3)
    for x, y in s:
        assert y == TARGET.evaluate(x)


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
