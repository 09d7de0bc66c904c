import random
from fractions import Fraction

import pytest

from lmqlab.concepts import (
    DecisionTree,
    Dfa,
    DnfFormula,
    Junta,
    Leaf,
    Node,
    PolyConcept,
    SparsePoly,
    SparsePtf,
    Term,
    dnf_of_tree,
    maj_poly,
    parity_dfa,
    random_tree,
)
from lmqlab.cube import CubePoint, DimensionMismatch, enumerate_cube


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


class TestDnf:
    def test_first_term_satisfied(self):
        f = DnfFormula(3, (Term.of(1, 2), Term.of(-1, 3)))
        assert f.evaluate(P("++-")) == 1

    def test_no_term_satisfied(self):
        f = DnfFormula(3, (Term.of(1, 2), Term.of(-1, 3)))
        assert f.evaluate(P("---")) == 0

    def test_empty_formula_and_empty_term_conventions(self):
        empty_formula = DnfFormula(2, ())
        always = DnfFormula(2, (Term(frozenset(), frozenset()),))
        for x in enumerate_cube(2):
            assert empty_formula.evaluate(x) == 0
            assert always.evaluate(x) == 1

    def test_term_satisfied_examples(self):
        t = Term.of(1, -2)
        assert t.satisfied_by(P("+-")) is True
        assert t.satisfied_by(P("++")) is False
        assert Term(frozenset(), frozenset()).satisfied_by(P("--")) is True

    def test_term_variable_beyond_point_dimension(self):
        with pytest.raises(DimensionMismatch):
            Term.of(3).satisfied_by(P("++"))

    def test_contradictory_term_rejected(self):
        with pytest.raises(ValueError):
            Term(frozenset({1}), frozenset({1}))

    def test_variable_beyond_dimension_rejected(self):
        with pytest.raises(ValueError):
            DnfFormula(2, (Term.of(3),))

    def test_dimension_mismatch(self):
        f = DnfFormula(3, (Term.of(1),))
        with pytest.raises(DimensionMismatch):
            f.evaluate(P("++"))

    def test_satisfied_indices(self):
        f = DnfFormula(2, (Term.of(1), Term.of(2)))
        assert f.satisfied_indices(P("++")) == (0, 1)
        assert f.satisfied_indices(P("+-")) == (0,)
        assert f.satisfied_indices(P("--")) == ()


class TestTree:
    def tree(self) -> DecisionTree:
        return DecisionTree(2, Node(1, Node(2, Leaf(1), Leaf(0)), Leaf(1)))

    def test_trace(self):
        # Low branch at the root, then low at the inner node, lands on 1.
        assert self.tree().evaluate(P("--")) == 1
        assert self.tree().evaluate(P("-+")) == 0
        assert self.tree().evaluate(P("+-")) == 1

    def test_dnf_of_tree_paths(self):
        f = dnf_of_tree(self.tree())
        assert set(t.signed() for t in f.terms) == {(1,), (-1, -2)}

    def test_dnf_of_tree_all_zero_leaves(self):
        t = DecisionTree(2, Node(1, Leaf(0), Leaf(0)))
        assert dnf_of_tree(t).terms == ()

    def test_dnf_of_tree_single_one_leaf(self):
        t = DecisionTree(2, Leaf(1))
        f = dnf_of_tree(t)
        assert len(f.terms) == 1 and f.terms[0].width == 0
        assert all(f.evaluate(x) == 1 for x in enumerate_cube(2))

    def test_dnf_of_tree_equivalence_random(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 7)
            tree = random_tree(n, rng.randint(2, min(64, 1 << n)), rng)
            f = dnf_of_tree(tree)
            assert len(f.terms) <= tree.leaf_count
            for x in enumerate_cube(n):
                label = tree.evaluate(x)
                assert f.evaluate(x) == label
                if label == 1:
                    assert len(f.satisfied_indices(x)) == 1

    def test_evaluator_is_pure(self):
        t = self.tree()
        assert t.evaluate(P("-+")) == t.evaluate(P("-+"))


class TestDfa:
    def test_parity_hand_run(self):
        # Two -1 symbols: even count, rejected.
        assert parity_dfa(3).evaluate(P("-+-")) == 0
        assert parity_dfa(3).evaluate(P("---")) == 1

    def test_length_must_match(self):
        with pytest.raises(DimensionMismatch):
            parity_dfa(3).evaluate(P("++"))

    def test_transition_totality_enforced(self):
        with pytest.raises(ValueError):
            Dfa(((0,),), 0, frozenset(), 2)

    def test_parity_agrees_with_popcount(self):
        a = parity_dfa(4)
        for x in enumerate_cube(4):
            minus_count = sum(1 for b in x.bits if b == -1)
            assert a.evaluate(x) == (minus_count % 2)


class TestJunta:
    def test_xor_junta(self):
        h = Junta(4, (1, 2), (0, 1, 1, 0))
        for x in enumerate_cube(4):
            expected = 1 if x.bit(1) != x.bit(2) else 0
            assert h.evaluate(x) == expected

    def test_table_size_validated(self):
        with pytest.raises(ValueError):
            Junta(3, (1, 2), (0, 1))

    def test_relevant_distinct(self):
        with pytest.raises(ValueError):
            Junta(3, (1, 1), (0, 1, 1, 0))


class TestPoly:
    def test_arithmetic_example(self):
        p = SparsePoly(
            3,
            {
                frozenset({1}): Fraction(1, 2),
                frozenset({2}): Fraction(1, 2),
                frozenset({3}): Fraction(1, 2),
                frozenset({1, 2, 3}): Fraction(-1, 2),
            },
        )
        assert p.evaluate(P("++-")) == 1
        assert p.evaluate(P("--+")) == -1

    def test_zero_coefficients_dropped(self):
        p = SparsePoly(2, {frozenset({1}): Fraction(0), frozenset(): Fraction(1)})
        assert p.coefficient_count == 1 and p.degree == 0

    def test_ptf_threshold(self):
        p = SparsePoly(2, {frozenset({1}): Fraction(1), frozenset({2}): Fraction(1)})
        f = SparsePtf(p, Fraction(2))
        assert f.evaluate(P("++")) == 1
        assert f.evaluate(P("+-")) == 0

    def test_poly_concept_adapter(self):
        maj = PolyConcept(maj_poly(3))
        assert maj.evaluate(P("++-")) == 1
        assert maj.evaluate(P("--+")) == 0
        bad = PolyConcept(SparsePoly(2, {frozenset({1}): Fraction(1, 2)}))
        with pytest.raises(ValueError):
            bad.evaluate(P("++"))


class TestMajPoly:
    def test_single_variable(self):
        assert maj_poly(1).monomials == {frozenset({1}): Fraction(1)}

    def test_three_variables_exact_expansion(self):
        expected = {
            frozenset({1}): Fraction(1, 2),
            frozenset({2}): Fraction(1, 2),
            frozenset({3}): Fraction(1, 2),
            frozenset({1, 2, 3}): Fraction(-1, 2),
        }
        assert maj_poly(3).monomials == expected

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_agrees_with_brute_force(self, k):
        poly = maj_poly(k)
        assert poly.degree <= k
        assert poly.coefficient_count <= 1 << k
        half = k // 2
        for x in enumerate_cube(k):
            brute = 1 if sum(1 for b in x.bits if b == 1) > half else -1
            assert poly.evaluate(x) == brute

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            maj_poly(4)
