import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    random_dfa,
    random_dnf,
    random_junta,
    random_tree,
)
from lmqlab.cube import CubePoint, DimensionMismatch, ReplicateMap, enumerate_cube
from lmqlab.distributions import LabeledSample
from lmqlab.reductions import ComposedConcept, SynthesizedLabels, make_reduction


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


# ---------------------------------------------------------------------------
# label(mask) against evaluate and a pointwise reference


def _ref_value(poly: SparsePoly, x: CubePoint) -> Fraction:
    total = Fraction(0)
    for vars_, coeff in poly.monomials.items():
        sign = 1
        for j in vars_:
            sign *= x.bit(j)
        total += coeff * sign
    return total


def _reference(c, x: CubePoint) -> int:
    """The label of x from the CubePoint API alone, one coordinate at a time."""
    if isinstance(c, DnfFormula):
        return int(any(t.satisfied_by(x) for t in c.terms))
    if isinstance(c, DecisionTree):
        node = c.root
        while isinstance(node, Node):
            node = node.high if x.bit(node.var) == 1 else node.low
        return node.label
    if isinstance(c, Dfa):
        state = c.start
        for b in x.bits:
            state = c.delta[state][b == 1]
        return int(state in c.accepting)
    if isinstance(c, Junta):
        idx = 0
        for j in c.relevant:
            idx = 2 * idx + (x.bit(j) == 1)
        return c.table[idx]
    if isinstance(c, PolyConcept):
        return {1: 1, -1: 0}[_ref_value(c.poly, x)]
    if isinstance(c, SparsePtf):
        return int(_ref_value(c.poly, x) >= c.theta)
    if isinstance(c, ComposedConcept):
        return _reference(c.inner, CubePoint.from_bits([b for b in x.bits for _ in range(c.phi.k)]))
    raise TypeError(f"no reference for {type(c).__name__}")


def _sample(n: int, pairs) -> LabeledSample:
    return LabeledSample(n, tuple(x.mask for x, _ in pairs), tuple(y for _, y in pairs))


def _instance(kind: str, rng: random.Random):
    """A random concept of the kind, and a pointwise reference for its labels."""
    n = rng.randint(1, 12)
    if kind == "dnf":
        c = random_dnf(n, rng.randint(0, 4), 3, rng)
    elif kind == "tree":
        c = random_tree(n, rng.randint(1, 12), rng)
    elif kind == "dfa":
        c = random_dfa(n, rng.randint(1, 5), rng)
    elif kind == "junta":
        c = random_junta(n, rng.randint(0, min(n, 5)), rng)
    elif kind == "poly":  # a signed parity is ±1-valued
        parity = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
        c = PolyConcept(SparsePoly(n, {parity: rng.choice((1, -1))}))
    elif kind == "ptf":
        monomials = {
            frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))): Fraction(rng.randint(-4, 4), 3)
            for _ in range(rng.randint(0, 5))
        }
        c = SparsePtf(SparsePoly(n, monomials), Fraction(rng.randint(-3, 3), 2))
    elif kind == "composed":
        phi = ReplicateMap(rng.randint(1, 4), rng.randint(1, 4))
        c = ComposedConcept(random_dnf(phi.target_n, 3, 3, rng), phi)
    else:
        # Kind A trains on a random subset of images; kind B on all of them,
        # so that every target point decodes to a trained source.
        source_n = rng.randint(1, 3)
        if kind == "synthesized-A":
            reduction = make_reduction("dnf", source_n, k=rng.randint(2, 4))
            h = random_dnf(source_n, 2, 2, rng)
        else:
            reduction = make_reduction("junta", source_n, q0=rng.randint(1, 2))
            h = random_junta(source_n, rng.randint(0, source_n), rng)
        phi = reduction.phi
        mapped = [(phi.apply(x), h.evaluate(x)) for x in enumerate_cube(source_n)]
        if kind == "synthesized-A":
            mapped = rng.sample(mapped, rng.randint(0, len(mapped)))
            labels, cut = dict(mapped), rng.randint(0, len(mapped))
            samples = _sample(phi.target_n, mapped[:cut]), _sample(phi.target_n, mapped[cut:])
            return SynthesizedLabels(reduction, *samples), lambda z: labels.get(z, 1)
        synthesized = SynthesizedLabels(reduction, _sample(phi.target_n, mapped))
        return synthesized, lambda z: min(mapped, key=lambda p: z.hamming(p[0]))[1]
    return c, lambda x: _reference(c, x)


@pytest.mark.parametrize(
    "kind", ["dnf", "tree", "dfa", "junta", "poly", "ptf", "composed", "synthesized-A", "synthesized-B"]
)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_label_matches_evaluate_and_pointwise_reference(kind, seed):
    rng = random.Random(seed)
    c, reference = _instance(kind, rng)
    for mask in [0, (1 << c.n) - 1] + [rng.getrandbits(c.n) for _ in range(16)]:
        x = CubePoint(c.n, mask)
        assert c.label(mask) == c.evaluate(x) == reference(x)
    with pytest.raises(DimensionMismatch):
        c.evaluate(CubePoint(c.n + 1, 0))
