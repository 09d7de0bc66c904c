import math
import random

import pytest

from lmqlab.concepts import DnfFormula, Term
from lmqlab.cube import CubePoint, enumerate_cube
from lmqlab.distributions import LabeledSample, UniformCube, exact_loss
from lmqlab.evident import gen_opposite_literal_dnf, satisfies_evidently
from lmqlab.learner import (
    learn_evident_dnf,
    learn_evident_dnf_run,
    plan_samples,
    reconstruct_term,
)
from lmqlab.oracle import LocalityViolation, LocalMQOracle, draw_training_set


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


class TestPlanner:
    def test_exact_values_small_case(self):
        plan = plan_samples(2, 0.5)
        m1 = math.ceil((32 * 8 / 0.5) * math.log(32 * 4 / 0.5))
        assert plan.m1 == m1 == 2840
        assert plan.m2 == math.ceil((32 * 2840 / 0.5) * math.log(32 * 2840 / 0.5))

    def test_monotone_in_epsilon(self):
        for n in (2, 5, 9):
            for eps in (0.5, 0.25, 0.1):
                assert plan_samples(n, eps / 2).m1 > plan_samples(n, eps).m1

    def test_term_count_variant_is_tighter(self):
        # d <= n^2 makes the generic bound an upper envelope of the d-form.
        assert plan_samples(4, 0.2, d=3).m1 <= plan_samples(4, 0.2).m1

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            plan_samples(3, 0.0)
        with pytest.raises(ValueError):
            plan_samples(3, 1.0)


class TestReconstruction:
    def test_conjunction_with_free_variable(self):
        f = DnfFormula(3, (Term.of(1, 2),))
        x = P("+++")
        o = LocalMQOracle(f, [x], q=1)
        assert reconstruct_term(x, o) == Term.of(1, 2)
        assert o.stats().query_count == 3

    def test_negative_literal_trace(self):
        f = DnfFormula(2, (Term.of(-1),))
        x = P("-+")
        o = LocalMQOracle(f, [x], q=1)
        assert reconstruct_term(x, o) == Term.of(-1)

    def test_exact_on_evident_points_of_random_instances(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(3, 8)
            width = rng.randint(2, min(4, n))
            d = rng.randint(1, 1 << (width - 1))
            f = gen_opposite_literal_dnf(n, d, width, seed=rng.randrange(1 << 30))
            for x in enumerate_cube(n):
                hit = f.satisfied_indices(x)
                if len(hit) == 1 and satisfies_evidently(f, hit[0], x):
                    o = LocalMQOracle(f, [x], q=1)
                    assert reconstruct_term(x, o) == f.terms[hit[0]]

    def test_queries_are_distance_one_flips(self):
        f = DnfFormula(4, (Term.of(1),))
        x = P("+-+-")
        o = LocalMQOracle(f, [x], q=1)
        reconstruct_term(x, o)
        assert [rec.point for rec in o.log] == [x.flip(j) for j in range(1, 5)]
        assert o.stats().distance_histogram == {1: 4}


class TestLearner:
    def test_end_to_end_equivalence(self):
        target = DnfFormula(4, (Term.of(1, 2), Term.of(-1, -2)))
        dist = UniformCube(4)
        s1 = draw_training_set(dist, target, 2000, seed=101)
        s2 = draw_training_set(dist, target, 10000, seed=102)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        learned = learn_evident_dnf(s1, s2, oracle)
        for x in enumerate_cube(4):
            assert learned.evaluate(x) == target.evaluate(x)
        assert exact_loss(dist, target, learned) == 0
        # Pruning soundness: nothing in the output fires on a known negative.
        for term in learned.terms:
            for x, y in s2:
                if y == 0:
                    assert not term.satisfied_by(x)

    def test_no_positives_yields_constant_zero(self):
        target = DnfFormula(3, (Term.of(1, 2, 3),))
        s1 = LabeledSample(((P("---"), 0), (P("-+-"), 0)))
        s2 = LabeledSample(())
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        learned = learn_evident_dnf(s1, s2, oracle)
        assert learned.terms == ()
        assert oracle.stats().query_count == 0

    def test_spurious_term_pruned_by_negatives(self):
        # The non-evident positive (+++) reconstructs the always-true term;
        # the negative example in the second sample removes it.
        target = DnfFormula(3, (Term.of(1), Term.of(2)))
        s1 = LabeledSample(((P("+++"), 1), (P("+--"), 1)))
        s2 = LabeledSample(((P("---"), 0),))
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        run = learn_evident_dnf_run(s1, s2, oracle)
        assert run.terms_added == 2
        assert run.terms_pruned == 1
        assert [t.signed() for t in run.formula.terms] == [(1,)]

    def test_query_count_is_n_times_positives(self):
        target = gen_opposite_literal_dnf(5, 2, 3, seed=8)
        dist = UniformCube(5)
        s1 = draw_training_set(dist, target, 300, seed=201)
        s2 = draw_training_set(dist, target, 300, seed=202)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        run = learn_evident_dnf_run(s1, s2, oracle)
        assert run.oracle_stats.query_count == 5 * len(s1.positives())
        assert run.positives_seen == len(s1.positives())

    def test_duplicate_terms_deduplicated(self):
        target = DnfFormula(3, (Term.of(1, 2),))
        x = P("+++")
        s1 = LabeledSample(((x, 1),) * 4)
        s2 = LabeledSample(())
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        run = learn_evident_dnf_run(s1, s2, oracle)
        assert run.terms_added == 1
        assert run.oracle_stats.query_count == 12

    def test_zero_locality_budget_rejects_first_query(self):
        target = DnfFormula(3, (Term.of(1, 2),))
        s1 = LabeledSample(((P("+++"), 1),))
        s2 = LabeledSample(((P("-+-"), 0),))
        oracle = LocalMQOracle.for_samples(target, 0, s1, s2)
        with pytest.raises(LocalityViolation):
            learn_evident_dnf(s1, s2, oracle)
        assert oracle.stats().query_count == 0

    def test_target_terms_survive_when_revealed(self):
        # Every target term has an evident representative in s1, so the
        # output contains every target term exactly.
        target = gen_opposite_literal_dnf(6, 4, 3, seed=14)
        dist = UniformCube(6)
        s1_points = []
        for x in enumerate_cube(6):
            hit = target.satisfied_indices(x)
            if len(hit) == 1 and satisfies_evidently(target, hit[0], x):
                s1_points.append(x)
        s1 = LabeledSample(tuple((x, 1) for x in s1_points))
        s2 = draw_training_set(dist, target, 3000, seed=55)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        learned = learn_evident_dnf(s1, s2, oracle)
        assert set(learned.terms) == set(target.terms)
