import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cubes import cube_points
from lmqlab.concepts import (
    DecisionTree,
    Dfa,
    DnfFormula,
    Junta,
    Leaf,
    MaskConcept,
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
from lmqlab.cube import (
    CubePoint,
    DimensionMismatch,
    ReplicateMap,
    ball_columns,
    cube_columns,
    masks_at_distance,
    recentre,
)
from lmqlab.distributions import _DRAW_BLOCK, FiniteSupport, LabeledSample, UniformCube, sample, sample_indices
from lmqlab.formats import parse_tree
from lmqlab import oracle
from lmqlab.oracle import draw_training_set, label_masks
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
        for x in cube_points(2):
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=40), st.integers(0, 3))
    def test_from_masks_inverts_masks(self, signs, extra):
        t = Term.of(*(sign * j for j, sign in enumerate(signs, 1) if sign))
        n = len(signs) + extra
        assert Term.from_masks(n, *t.masks(n)) == t

    @pytest.mark.parametrize(
        "pos, neg, message",
        [(8, 0, "out of range"), (0, 8, "out of range"), (-1, 0, "out of range"), (1, 1, "and its negation")],
    )
    def test_from_masks_refuses_masks_no_term_has(self, pos, neg, message):
        with pytest.raises(ValueError, match=message):
            Term.from_masks(3, pos, neg)

    def test_contradictory_term_rejected(self):
        with pytest.raises(ValueError):
            Term(frozenset({1}), frozenset({1}))
        # Lists are read as sets before the check; a field that is no collection is one ValueError, not a TypeError.
        with pytest.raises(ValueError, match=r"^term contains a variable and its negation: \[1\]$"):
            Term([1], [1])
        with pytest.raises(ValueError) as exc:
            Term(1, 2)
        message = "term literals must be collections of variable indices, got Term(positives=1, negatives=2)"
        assert exc.type is ValueError and str(exc.value) == message

    def test_variable_beyond_dimension_rejected(self):
        with pytest.raises(ValueError):
            DnfFormula(2, (Term.of(3),))

    def test_first_variable_beyond_dimension_is_named(self):
        # The bulk check names the first such variable in term order, as the per-term walk did.
        with pytest.raises(DimensionMismatch, match=r"^variable 3 out of range 1..2$"):
            DnfFormula(2, (Term.of(1, -2), Term.of(-3), Term.of(4)))

    def test_dimension_mismatch(self):
        f = DnfFormula(3, (Term.of(1),))
        with pytest.raises(DimensionMismatch):
            f.evaluate(P("++"))

    def test_satisfied_indices(self):
        f = DnfFormula(2, (Term.of(1), Term.of(2)))
        assert f.satisfied_indices(P("++").mask) == (0, 1)
        assert f.satisfied_indices(P("+-").mask) == (0,)
        assert f.satisfied_indices(P("--").mask) == ()


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
        assert all(f.evaluate(x) == 1 for x in cube_points(2))

    def test_dnf_of_tree_equivalence_random(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 7)
            tree = random_tree(n, rng.randint(2, min(64, 1 << n)), rng)
            f = dnf_of_tree(tree)
            assert len(f.terms) <= tree.leaf_count
            for x in cube_points(n):
                label = tree.evaluate(x)
                assert f.evaluate(x) == label
                if label == 1:
                    assert len(f.satisfied_indices(x.mask)) == 1

    def test_evaluator_is_pure(self):
        t = self.tree()
        assert t.evaluate(P("-+")) == t.evaluate(P("-+"))

    def test_shared_subtree_with_a_bad_variable_is_refused(self):
        bad = Node(2, Leaf(0), Node(5, Leaf(1), Leaf(0)))
        for root in (Node(1, bad, bad), Node(1, Leaf(0), Node(3, bad, Node(4, bad, Leaf(1))))):
            with pytest.raises(ValueError, match=r"^node variable 5 out of range 1\.\.4$"):
                DecisionTree(4, root)
        first = Node(6, Leaf(0), Leaf(1))  # preorder names the first bad variable, as before
        with pytest.raises(ValueError, match=r"^node variable 6 out of range 1\.\.4$"):
            DecisionTree(4, Node(1, first, Node(7, first, Leaf(0))))

    @pytest.mark.parametrize(
        "root, bad",
        [
            (Node(1, 0, 1), 0),  # built, then label(0) raised AttributeError
            (Node(1, Leaf(0), Node(2, Leaf(1), True)), True),
            (Node(1, Leaf(0), Node(2, None, Leaf(1))), None),
            (1, 1),
        ],
    )
    def test_node_that_is_neither_a_node_nor_a_leaf_is_refused(self, root, bad):
        with pytest.raises(ValueError) as exc:
            DecisionTree(2, root)
        assert exc.type is ValueError and str(exc.value) == f"a tree node must be a Node or a Leaf, got {bad!r}"

    def test_vars_yield_each_distinct_node_once(self):
        root = Leaf(1)
        for var in range(1, 21):  # 2^20 + 1 root-to-leaf paths over 21 distinct nodes
            root = Node(var, root, Node(var, root, Leaf(0)) if var == 20 else root)
        assert list(DecisionTree._vars(root)) == list(range(20, 0, -1)) + [20]
        # Only ints reach the asserts: a failing assert would print the tree path by path.
        tree = DecisionTree(20, root)
        leaves, top, bottom = tree.leaf_count, tree.label((1 << 20) - 1), tree.label(0)
        assert (leaves, top, bottom) == (2 ** 20 + 1, 0, 1)

    def test_parse_tree_infers_n_from_repeated_variables(self):
        text = "(2 (3 (2 0 1) 1) (3 1 (2 1 0)))"
        tree = parse_tree(text)
        assert tree.n == 3 and tree.leaf_count == 6
        assert parse_tree("dim 5\n" + text).n == 5


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

    def test_automaton_without_states_is_refused(self):
        # It used to say "start and accepting states must lie in 0..-1".
        with pytest.raises(ValueError, match=r"^an automaton needs at least one state, got an empty delta$"):
            Dfa((), 0, frozenset(), 2)

    @pytest.mark.parametrize(
        "delta",
        [
            ((0, 1), (1, 0)),
            [[0, 1], [1, 0]],
            ((0, 1), (1, 2)),
            ((0, -1), (1, 0)),
            ((0, 1), (1,)),
            ((0, 1, 0), (1, 0)),
            ((0, 1, 0), (1,)),
            ((0, 1.5), (1, 0)),
            ((0, "1"), (1, 0)),
            ((0, None), (1, 0)),
            ((0, [1]), (1, 0)),
            ((0, 1), (5, 0), (0, "x")),
            ((0, 5), 3),
            ((0, 1), 3),
            ((0, 1), "ab"),
        ],
    )
    def test_transition_check_matches_the_per_row_walk(self, delta):
        def per_row(delta):
            states = range(len(delta))
            for s, row in enumerate(delta):
                if not isinstance(row, (tuple, list)) or len(row) != 2 or not all(t in states for t in row):
                    raise ValueError(f"state {s} needs two transitions into 0..{len(states) - 1}, got {row!r}")

        def outcome(check):
            try:
                check()
            except Exception as error:
                return type(error), str(error)
            return None

        assert outcome(lambda: Dfa(delta, 0, frozenset(), 2)) == outcome(lambda: per_row(delta))

    def test_accepting_states_that_are_not_a_collection_are_refused(self):
        # It used to raise TypeError: 'int' object is not iterable.
        with pytest.raises(ValueError, match=r"^accepting states must be a collection, got int$"):
            Dfa(((0, 0),), 0, 5, 1)

    @pytest.mark.parametrize("bad", [1.0, True, 0.0, False])
    def test_float_and_bool_states_are_refused(self, bad):
        # Each equals a state (1.0 in range(2) holds), but a state is an int, as require_count has it.
        delta = ((0, 1), (1, 0))
        with pytest.raises(ValueError, match=rf"^state 0 needs two transitions into 0\.\.1, got \(0, {bad!r}\)$"):
            Dfa(((0, bad), (1, 0)), 0, frozenset(), 2)
        for start, accepting in ((bad, frozenset()), (0, frozenset({bad}))):
            with pytest.raises(ValueError, match=r"^start and accepting states must lie in 0\.\.1$"):
                Dfa(delta, start, accepting, 2)

    def test_parity_agrees_with_popcount(self):
        a = parity_dfa(4)
        for x in cube_points(4):
            minus_count = sum(1 for b in x.bits if b == -1)
            assert a.evaluate(x) == (minus_count % 2)


class TestJunta:
    def test_xor_junta(self):
        h = Junta(4, (1, 2), (0, 1, 1, 0))
        for x in cube_points(4):
            expected = 1 if x.bit(1) != x.bit(2) else 0
            assert h.evaluate(x) == expected

    def test_table_size_validated(self):
        with pytest.raises(ValueError):
            Junta(3, (1, 2), (0, 1))

    def test_relevant_distinct(self):
        with pytest.raises(ValueError):
            Junta(3, (1, 1), (0, 1, 1, 0))
        # The table is indexed in relevant's order, which a set does not keep: {3, 1} iterates as (1, 3).
        for relevant in ({3, 1}, frozenset({3, 1})):
            with pytest.raises(ValueError, match=r"^junta relevant variables must be a sequence \(ordered, with a"):
                Junta(3, relevant, (0, 1, 0, 0))


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

    @pytest.mark.parametrize("theta", [1, -3, 0.1, -2.75, 0.0, Fraction(-7, 3)])
    def test_ptf_threshold_is_stored_exactly(self, theta):
        p = SparsePoly(3, {frozenset({1}): Fraction(1, 10), frozenset({2, 3}): -2})
        f = SparsePtf(p, theta)
        assert type(f.theta) is Fraction and f.theta == theta
        for x in cube_points(3):
            assert f.evaluate(x) == int(_ref_value(p, x) >= Fraction(theta))

    @pytest.mark.parametrize(
        "theta", [float("nan"), float("inf"), -float("inf"), True, False, "1", None, Decimal("0.5"), 1j]
    )
    def test_ptf_threshold_that_is_not_a_rational_refused(self, theta):
        p = SparsePoly(2, {frozenset({1}): Fraction(1)})
        with pytest.raises(ValueError, match="threshold must be an int, a finite float or a Fraction"):
            SparsePtf(p, theta)

    @pytest.mark.parametrize("poly", [None, {frozenset({1}): 1}, maj_poly(3).monomials, PolyConcept(maj_poly(3))])
    @pytest.mark.parametrize("adapter", [lambda p: SparsePtf(p, Fraction(0)), PolyConcept])
    def test_adapter_of_something_else_than_a_polynomial_refused(self, poly, adapter):
        with pytest.raises(ValueError, match="needs a SparsePoly"):
            adapter(poly)

    @pytest.mark.parametrize("coeff", [True, False, float("nan"), float("inf"), "1/2", None, Decimal(1)])
    def test_coefficient_that_is_not_a_rational_refused(self, coeff):
        with pytest.raises(ValueError, match="coefficient must be an int, a finite float or a Fraction"):
            SparsePoly(2, {frozenset({1}): coeff})

    def test_float_coefficient_kept_exactly(self):
        p = SparsePoly(1, {frozenset({1}): 0.1, frozenset(): 3})
        assert p.monomials == {frozenset({1}): Fraction(0.1), frozenset(): Fraction(3)}
        assert p.value(1) == Fraction(0.1) + 3 and p.value(0) == 3 - Fraction(0.1)


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
        for x in cube_points(k):
            brute = 1 if sum(1 for b in x.bits if b == 1) > half else -1
            assert poly.evaluate(x) == brute

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            maj_poly(4)


# ---------------------------------------------------------------------------
# Seeded random instances take their counts by the one int rule

_RANDOM_COUNTS = {
    "tree-n": lambda v: random_tree(v, 2, random.Random(0)),
    "tree-leaves": lambda v: random_tree(3, v, random.Random(0)),
    "dnf-n": lambda v: random_dnf(v, 1, 1, random.Random(0)),
    "dnf-d": lambda v: random_dnf(3, v, 1, random.Random(0)),
    "dnf-max_width": lambda v: random_dnf(3, 1, v, random.Random(0)),
}


@pytest.mark.parametrize("value", [True, 2.0, "2", None], ids=["bool", "float", "str", "None"])
@pytest.mark.parametrize("build", _RANDOM_COUNTS.values(), ids=_RANDOM_COUNTS.keys())
def test_random_instances_refuse_a_count_that_is_not_an_int(build, value):
    with pytest.raises(ValueError) as exc:
        build(value)
    assert exc.type is ValueError and str(exc.value).endswith(f", got {value!r}")


def test_random_tree_clamps_an_int_leaf_count_to_the_cube_and_refuses_one_below_1():
    assert random_tree(3, 100, random.Random(5)) == random_tree(3, 8, random.Random(5))
    assert random_tree(3, 8, random.Random(5)).leaf_count == 8
    for leaves in (0, -3):
        with pytest.raises(ValueError, match=f"^leaf count must be a positive integer, got {leaves}$"):
            random_tree(3, leaves, random.Random(5))


# ---------------------------------------------------------------------------
# Value types built from lists or sets hold tuples and frozensets

_LOOSE_BUILDS = {
    "Term": (lambda: Term({1}, set()), lambda: Term(frozenset({1}), frozenset())),
    "Term-lists": (lambda: Term([1], []), lambda: Term.of(1)),
    "DnfFormula": (lambda: DnfFormula(2, [Term.of(1)]), lambda: DnfFormula(2, (Term.of(1),))),
    "Junta": (lambda: Junta(2, [1], [0, 1]), lambda: Junta(2, (1,), (0, 1))),
    "Dfa": (lambda: Dfa([[1, 0], [0, 1]], 0, {1}, 2), lambda: Dfa(((1, 0), (0, 1)), 0, frozenset({1}), 2)),
    "LabeledSample": (lambda: LabeledSample(2, [0, 3], [0, 1]), lambda: LabeledSample(2, (0, 3), b"\0\1")),
}


@pytest.mark.parametrize("loose, canonical", _LOOSE_BUILDS.values(), ids=_LOOSE_BUILDS.keys())
def test_value_types_built_from_lists_or_sets_equal_and_hash_as_their_canonical_twins(loose, canonical):
    a, b = loose(), canonical()
    assert a == b and hash(a) == hash(b)
    for name in a.__dataclass_fields__:
        assert type(getattr(a, name)) is type(getattr(b, name)), name
    if isinstance(a, Dfa):
        assert {type(row) for row in a.delta} == {tuple}


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
        return _reference(c.inner, CubePoint.from_string("".join(sign * c.phi.k for sign in x.to_string())))
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
        mapped = [(phi.apply(x), h.evaluate(x)) for x in cube_points(source_n)]
        if kind == "synthesized-A":
            mapped = rng.sample(mapped, rng.randint(0, len(mapped)))
            labels, cut = dict(mapped), rng.randint(0, len(mapped))
            samples = _sample(phi.target_n, mapped[:cut]), _sample(phi.target_n, mapped[cut:])
            return SynthesizedLabels(reduction, *samples), lambda z: labels.get(z, 1)
        synthesized = SynthesizedLabels(reduction, _sample(phi.target_n, mapped))
        return synthesized, lambda z: min(mapped, key=lambda p: (z.mask ^ p[0].mask).bit_count())[1]
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


@pytest.mark.parametrize(
    "kind", ["tree", "dfa", "junta", "poly", "ptf", "composed", "synthesized-A", "synthesized-B"]
)
def test_default_reads_covers_every_coordinate(kind):
    c, _ = _instance(kind, random.Random(7))
    assert c.reads == (1 << c.n) - 1
    rng = random.Random(8)
    for mask in [0, (1 << c.n) - 1] + [rng.getrandbits(c.n) for _ in range(16)]:
        assert c.label(mask) == c.label(mask & c.reads)


# Dimensions on both sides of the 8-coordinate chunk edges and the 64-bit word edge.
_EDGE_DIMENSIONS = st.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65]) | st.integers(1, 70)


@st.composite
def _polys(draw, n=None):
    """A polynomial over n variables whose coefficients fall in 1 to 5 classes, or none."""
    n = draw(_EDGE_DIMENSIONS) if n is None else n
    pool = draw(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=12), min_size=1, max_size=5)
    )
    monomials = draw(
        st.dictionaries(
            st.frozensets(st.integers(1, n), max_size=min(n, 6)), st.sampled_from(pool), max_size=40
        )
    )
    return SparsePoly(n, monomials)


@st.composite
def _masks(draw, n):
    """Masks 0 and 2^n - 1, and a few drawn ones."""
    return [0, (1 << n) - 1] + draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_poly_value_matches_pointwise_product(data):
    poly = data.draw(_polys())
    for mask in data.draw(_masks(poly.n)):
        assert poly.value(mask) == _ref_value(poly, CubePoint(poly.n, mask))


@pytest.mark.parametrize("n", [1, 8, 9, 64, 65])
def test_empty_and_constant_polys_match_pointwise_product(n):
    for monomials in ({}, {frozenset(): Fraction(-5, 3)}, {frozenset(): 2, frozenset({1}): Fraction(1, 3)}):
        poly = SparsePoly(n, monomials)
        for mask in (0, (1 << n) - 1, 1, 1 << (n - 1)):
            assert poly.value(mask) == _ref_value(poly, CubePoint(n, mask))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ptf_label_matches_pointwise_threshold(data):
    poly = data.draw(_polys())
    masks = data.draw(_masks(poly.n))
    values = [_ref_value(poly, CubePoint(poly.n, m)) for m in masks]
    # Half the thresholds are one of the values, so value == theta ties occur.
    theta = data.draw(
        st.sampled_from(values) | st.fractions(min_value=-6, max_value=6, max_denominator=12)
    )
    f = SparsePtf(poly, theta)
    for mask, value in zip(masks, values):
        assert f.label(mask) == int(value >= theta)


@st.composite
def _signed_polys(draw):
    """A ±1-valued polynomial: a signed product of majorities over disjoint variables, or any polynomial."""
    n = draw(_EDGE_DIMENSIONS)
    if draw(st.booleans()):
        return draw(_polys(n))
    free = draw(st.permutations(range(1, n + 1)))
    poly = SparsePoly(n, {frozenset(): draw(st.sampled_from([1, -1]))})
    for k in draw(st.lists(st.sampled_from([1, 3, 5]), max_size=2)):
        if len(free) < k:
            break
        block, free = free[:k], free[k:]
        maj = maj_poly(k).monomials
        poly = SparsePoly(
            n,
            {
                vs | frozenset(block[i - 1] for i in us): c * d
                for vs, c in poly.monomials.items()
                for us, d in maj.items()
            },
        )
    return poly


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_poly_concept_label_matches_pointwise_sign(data):
    poly = data.draw(_signed_polys())
    c = PolyConcept(poly)
    for mask in data.draw(_masks(poly.n)):
        value = _ref_value(poly, CubePoint(poly.n, mask))
        if value in (1, -1):
            assert c.label(mask) == (value == 1)
        else:
            with pytest.raises(ValueError, match=f"polynomial value {value} at "):
                c.label(mask)


def test_poly_tables_built_on_first_evaluation():
    # Kind-B expansions build polynomials with tens of thousands of monomials that are never evaluated.
    poly = SparsePoly(20, {frozenset({j}): Fraction(1, j) for j in range(1, 21)})
    assert "_scaled" not in vars(poly)
    assert poly.value(0) == -sum(Fraction(1, j) for j in range(1, 21))
    assert "_scaled" in vars(poly)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(0, 6),
    width=st.integers(1, 6),
    empty_term=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_dnf_reads_only_its_terms_variables(n, d, width, empty_term, seed):
    rng = random.Random(seed)
    f = random_dnf(n, d, width, rng)
    if empty_term:
        f = DnfFormula(n, f.terms + (Term.of(),))
    assert f.reads == sum(1 << (n - j) for j in set().union(*(t.variables for t in f.terms)))
    for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(32)]:
        assert f.label(mask) == f.label(mask & f.reads)
        assert f.label(mask) == f.label(mask | ~f.reads & (1 << n) - 1)


def _flips_one_by_one(c, mask):
    return [c.label(mask ^ 1 << i) for i in range(c.n)]


def _flip_bits(c, mask):
    bits = c.flip_labels(mask)
    assert 0 <= bits < 1 << c.n
    return [bits >> i & 1 for i in range(c.n)]


@pytest.mark.parametrize(
    "kind", ["dnf", "tree", "dfa", "junta", "poly", "ptf", "composed", "synthesized-A", "synthesized-B"]
)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_flip_labels_matches_one_label_per_flip(kind, seed):
    rng = random.Random(seed)
    c, _ = _instance(kind, rng)
    for mask in [0, (1 << c.n) - 1] + [rng.getrandbits(c.n) for _ in range(16)]:
        assert _flip_bits(c, mask) == _flips_one_by_one(c, mask)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(0, 6),
    width=st.integers(1, 6),
    empty_term=st.booleans(),
    violations=st.integers(0, 2),
    seed=st.integers(0, 2**32),
)
def test_dnf_flip_labels_matches_one_label_per_flip(n, d, width, empty_term, violations, seed):
    # Points near a term, so satisfied terms and terms violated by one literal both occur.
    rng = random.Random(seed)
    f = random_dnf(n, d, width, rng)
    if empty_term:
        f = DnfFormula(n, f.terms + (Term.of(),))
    masks = [0, (1 << n) - 1, rng.getrandbits(n)]
    for term in f.terms:
        pos, neg = term.masks(n)
        mask = (rng.getrandbits(n) | pos) & ~neg
        for j in rng.sample(sorted(term.variables), min(violations, term.width)):
            mask ^= 1 << (n - j)
        masks.append(mask)
    for mask in masks:
        assert _flip_bits(f, mask) == _flips_one_by_one(f, mask)


def test_dnf_flip_labels_edge_formulas():
    assert DnfFormula(3, ()).flip_labels(0b101) == 0
    assert DnfFormula(3, (Term.of(),)).flip_labels(0b101) == 0b111
    # x1 AND NOT x2 at (+,+,-): flipping x2 satisfies it, nothing else does.
    assert DnfFormula(3, (Term.of(1, -2),)).flip_labels(0b110) == 0b010
    # ... and at (+,-,-) it is satisfied, so only flips of x1 or x2 turn it off.
    assert DnfFormula(3, (Term.of(1, -2),)).flip_labels(0b100) == 0b001


# ---------------------------------------------------------------------------
# Bit-sliced labels against pointwise ``label``

def _random_poly(n: int, rng: random.Random) -> SparsePoly:
    """Up to 6 monomials of degree <= 3, coefficients in thirds from -2 to 2; a constant term, or none, may occur."""
    return SparsePoly(n, {
        frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))): Fraction(rng.randint(-6, 6), 3)
        for _ in range(rng.randint(0, 6))
    })


def _random_ptf(n: int, rng: random.Random) -> SparsePtf:
    """Half the thresholds are the polynomial's value somewhere, so ties at theta occur."""
    poly = _random_poly(n, rng)
    theta = poly.value(rng.getrandbits(n)) if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), 4)
    return SparsePtf(poly, theta)


def _random_signed_poly(n: int, rng: random.Random) -> PolyConcept:
    """A ±1-valued polynomial: a signed parity times a majority over variables disjoint from it."""
    free = rng.sample(range(1, n + 1), n)
    k = rng.choice([k for k in (1, 3, 5) if k <= n])
    block, rest = free[:k], free[k:]
    parity = frozenset(rng.sample(rest, rng.randint(0, min(len(rest), 4))))
    sign = rng.choice((1, -1))
    return PolyConcept(SparsePoly(n, {
        parity | frozenset(block[i - 1] for i in us): sign * c for us, c in maj_poly(k).monomials.items()
    }))


class _LabelOnly(MaskConcept):
    """A concept that knows only ``label``: its ``label_columns`` is ``MaskConcept``'s pointwise default."""

    def __init__(self, concept):
        self.n, self.concept = concept.n, concept

    def label(self, mask):
        return self.concept.label(mask)


COLUMN_CONCEPTS = {
    "dnf": lambda n, rng: random_dnf(n, rng.randint(0, 6), 4, rng),
    "dfa": lambda n, rng: random_dfa(n, rng.randint(1, 6), rng),
    "tree": lambda n, rng: random_tree(n, rng.randint(1, 12), rng),
    "junta": lambda n, rng: random_junta(n, rng.randint(0, min(n, 5)), rng),
    "ptf": _random_ptf,
    "poly": _random_signed_poly,
    "label-only": lambda n, rng: _LabelOnly(random_tree(n, rng.randint(1, 12), rng)),
    "composed": lambda n, rng: ComposedConcept(random_dnf(2 * n, rng.randint(0, 6), 4, rng), ReplicateMap(n, 2)),
}


@pytest.mark.parametrize("kind", list(COLUMN_CONCEPTS))
@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 5, 9, 20, 63, 64, 65]), r=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_label_columns_match_label_over_a_ball(kind, n, r, rng):
    # Ball sizes and target widths on both sides of 64-bit word edges.
    r = min(r, 3 if n <= 20 else 2)
    concept = COLUMN_CONCEPTS[kind](n, rng)
    flips = [m for w in range(1, r + 1) for m in masks_at_distance(0, n, w)]
    full, centre = (1 << len(flips)) - 1, rng.getrandbits(n)
    ones = concept.label_columns(recentre(ball_columns(n, r), full, centre), full)
    assert ones == sum(concept.label(centre ^ f) << p for p, f in enumerate(flips))


@pytest.mark.parametrize("kind", list(COLUMN_CONCEPTS))
@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 7), rng=st.randoms(use_true_random=False))
def test_label_columns_over_the_whole_cube_are_truth_tables(kind, n, rng):
    concept = COLUMN_CONCEPTS[kind](n, rng)
    ones = concept.label_columns(cube_columns(n), (1 << (1 << n)) - 1)
    assert ones == sum(concept.label(m) << m for m in range(1 << n))


TRAINING_COUNTS = [0, 1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1]


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64, 65])
@pytest.mark.parametrize("kind", list(COLUMN_CONCEPTS))
def test_draw_training_set_labels_each_draw_as_label_does(kind, n):
    # Both sides of each lane width (1, 2, 4, 8, 16 bytes) and of a block of draws.
    concept = COLUMN_CONCEPTS[kind](n, random.Random(n))
    dist, seed = UniformCube(n), 31 * n
    masks = sample(dist, max(TRAINING_COUNTS), seed)
    labels = [concept.label(mask) for mask in masks]
    for m in TRAINING_COUNTS:
        s = draw_training_set(dist, concept, m, seed)
        assert (s.n, s.masks, s.labels) == (n, tuple(masks[:m]), bytes(labels[:m]))
    # More than a block of masks, every third one repeated, as an audit's query list may hold them.
    assert label_masks(concept, masks + masks[::3]) == bytes(labels + labels[::3])


def test_draw_training_set_names_the_first_draw_off_pm1():
    # (x1 + x2) / 2 is 0 where x1 != x2. Those two points carry mass 1/10000 each, so the first of them
    # drawn often lies past the first block; the error names it, as label does, whichever block it is in.
    c = PolyConcept(SparsePoly(9, {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)}))
    off, rare = (0b100000000, 0b010000000), Fraction(1, 20000)
    half = Fraction(1, 2) - rare
    dist = FiniteSupport(9, ((0, half), (0b110000000, half), *((x, rare) for x in off)))
    m, firsts = 3 * _DRAW_BLOCK + 7, []
    for seed in range(12):
        masks = sample(dist, m, seed)
        first = next((p for p, mask in enumerate(masks) if mask in off), None)
        if first is None:
            assert draw_training_set(dist, c, m, seed).labels == bytes(map(c.label, masks))
            continue
        firsts.append(first)
        with pytest.raises(ValueError) as expected:
            c.label(masks[first])
        with pytest.raises(ValueError) as raised:
            draw_training_set(dist, c, m, seed)
        assert str(raised.value) == str(expected.value)
    assert min(firsts) < _DRAW_BLOCK <= max(firsts)


class _TableConcept(MaskConcept):
    """Labels from a dict: a mask missing from it raises ``KeyError``."""

    def __init__(self, n, table):
        self.n, self.table = n, table

    def label(self, mask):
        return self.table[mask]


@pytest.mark.parametrize("support", ["finite", "finite-exact", "uniform", "table", "table-exact"])
def test_draw_training_set_labels_pointwise_when_no_draw_is_unlabelled(support):
    # A support point has no label, so labelling the support raises, but samples that never draw it are labelled
    # pointwise, and the error of one that does is the first such draw's. Masses of 1/20000 split top bytes, so
    # those supports are drawn by bisection and labelled by ``sample``; masses in 256ths are drawn by index.
    exact = support.endswith("exact")
    rare, m = (Fraction(1, 256), 128) if exact else (Fraction(1, 20000), 2 * _DRAW_BLOCK)
    if support.startswith("table"):
        third = Fraction(85, 256) if exact else Fraction(1, 3)
        dist = FiniteSupport(5, ((3, third), (9, rare), (17, 1 - third - rare)))
        c = _TableConcept(5, {3: 1, 17: 0})
    elif support.startswith("finite"):
        # (x1 + x2) / 2 is 0 at the two points of mass ``rare`` each.
        c = PolyConcept(SparsePoly(9, {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)}))
        dist = FiniteSupport(9, ((0, Fraction(1, 2) - rare), (0b110000000, Fraction(1, 2) - rare),
                                 (0b100000000, rare), (0b010000000, rare)))
    else:
        # 1 - (1 + x1)(1 + x2)(1 + x3) / 8 is 0 at +++ and 1 at the seven other points of the cube.
        products = [frozenset(s) for k in range(4) for s in combinations((1, 2, 3), k)]
        c = PolyConcept(SparsePoly(3, {s: Fraction(7 if not s else -1, 8) for s in products}))
        dist, m = UniformCube(3), 4
    assert (sample_indices(dist, m, 0) is None) == (support in ("finite", "table"))
    with pytest.raises((ValueError, KeyError)):
        label_masks(c, [x for x, _ in dist.support()])
    outcomes = set()
    for seed in range(16):
        masks = sample(dist, m, seed)
        try:
            labels = tuple(map(c.label, masks))
        except (ValueError, KeyError) as expected:
            with pytest.raises(type(expected)) as raised:
                draw_training_set(dist, c, m, seed)
            assert str(raised.value) == str(expected)
            outcomes.add("raised")
            continue
        drawn = draw_training_set(dist, c, m, seed)
        assert drawn == LabeledSample(dist.n, tuple(masks), labels)
        # No support table, so no cover of the drawn support: the default, the sample itself. The draws were
        # labelled, so their masks tuple is built and stored at once.
        assert "masks" in vars(drawn) and "cover" not in vars(drawn) and drawn.cover == (drawn.masks, drawn.labels)
        outcomes.add("labelled")
    assert outcomes == {"raised", "labelled"}


_SUPPORT_256THS = FiniteSupport(5, ((3, Fraction(85, 256)), (9, Fraction(1, 256)), (17, Fraction(170, 256))))


@pytest.mark.parametrize(
    "dist, concept",
    [
        (_SUPPORT_256THS, _TableConcept(5, {3: 1, 9: 1, 17: 0})),
        (_SUPPORT_256THS, _TableConcept(5, {3: 1, 17: 0})),
        # (x1 + x2) / 2 is 0 at -+ and +-, half the cube.
        (UniformCube(2), PolyConcept(SparsePoly(2, {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)}))),
    ],
    ids=["labelled", "unlabelled-point", "poly-off-pm1"],
)
def test_draw_training_set_reads_a_distribution_drawn_by_index_once(dist, concept, monkeypatch):
    # Masses in 256ths and the cube to n = 8 are drawn by index, and ``oracle.sample`` is never called: a support
    # point without a label sends the index draws' own masks, which are ``sample``'s, to be labelled, so a sample is
    # ``sample``'s draws labelled, and an error names the first draw without a label, as ``label`` does.
    def outcome(draw):
        try:
            return draw()
        except (ValueError, KeyError) as error:
            return type(error), str(error)

    def pointwise(seed):
        masks = tuple(sample(dist, 64, seed))
        return LabeledSample(dist.n, masks, bytes(map(concept.label, masks)))

    assert sample_indices(dist, 64, 0) is not None
    expected = [outcome(lambda: pointwise(seed)) for seed in range(16)]

    def refuse(*args):
        raise AssertionError("oracle.sample was called")

    monkeypatch.setattr(oracle, "sample", refuse)
    assert [outcome(lambda: draw_training_set(dist, concept, 64, seed)) for seed in range(16)] == expected


def _point_sets(n: int, r: int | None, rng: random.Random) -> tuple[list[int], int, list[int]]:
    """(masks, full, columns): the ball of radius r around a random centre, or with r None the whole cube."""
    if r is None:
        return list(range(1 << n)), (1 << (1 << n)) - 1, list(cube_columns(n))
    flips = [m for w in range(1, r + 1) for m in masks_at_distance(0, n, w)]
    full, centre = (1 << len(flips)) - 1, rng.getrandbits(n)
    return [centre ^ f for f in flips], full, recentre(ball_columns(n, r), full, centre)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 9, 20, 63, 64, 65]),
    r=st.sampled_from([None, 0, 1, 2, 3]),
    shift=st.sampled_from([None, 0, 1]),
    rng=st.randoms(use_true_random=False),
)
def test_poly_compare_columns_match_value(n, r, shift, rng):
    # Balls across 64-bit word edges, or the whole cube. With a shift, the constant term moves the
    # value at one listed point to 0 or 1, so an equality is never read as a 0/1 label.
    n, r = (min(n, 7), None) if r is None else (n, min(r, 3 if n <= 20 else 2))
    masks, full, columns = _point_sets(n, r, rng)
    poly = _random_poly(n, rng)
    if shift is not None and masks:
        constant = poly.monomials.get(frozenset(), 0) + shift - poly.value(rng.choice(masks))
        poly = SparsePoly(n, {**poly.monomials, frozenset(): constant})
    values = [poly.value(m) for m in masks]
    # Three interleaved parts, each with a target: a listed value, just below one, 0, ±1 or a fraction.
    parts = [sum(1 << p for p in range(i, len(masks), 3)) for i in range(3)]
    pool = values + [v - Fraction(1, 997) for v in values] + [0, 1, -1, Fraction(rng.randint(-20, 20), 6)]
    targets = [rng.choice(pool) for _ in parts]
    at_least, equal = poly.compare_columns(columns, full, zip(targets, parts))
    assert at_least == sum((v >= targets[p % 3]) << p for p, v in enumerate(values))
    assert equal == sum((v == targets[p % 3]) << p for p, v in enumerate(values))


@pytest.mark.parametrize("n", [1, 8, 9])
@pytest.mark.parametrize(
    "monomials",
    [{}, {frozenset(): Fraction(-5, 3)}, {frozenset(): 2, frozenset({1}): Fraction(-1, 3)},
     {frozenset({1}): -1, frozenset(): Fraction(1, 2)}],
    ids=["empty", "constant", "negative-linear", "negative-half"],
)
def test_poly_compare_columns_edge_polys_over_the_cube(n, monomials):
    poly = SparsePoly(n, monomials)
    masks, full, columns = _point_sets(n, None, random.Random(0))
    values = [poly.value(m) for m in masks]
    # Each value, and just below it, so that the integer ceiling of a target meets a value.
    below = [v - Fraction(1, 1000) for v in set(values)]
    for target in sorted(set(values)) + below + [0, 1, -1, Fraction(1, 7), -10, 10]:
        at_least, equal = poly.compare_columns(columns, full, [(target, full)])
        assert at_least == sum((v >= target) << m for m, v in enumerate(values))
        assert equal == sum((v == target) << m for m, v in enumerate(values))
        assert SparsePtf(poly, target).label_columns(columns, full) == at_least


@settings(max_examples=100, deadline=None)
@given(data=st.data(), r=st.sampled_from([None, 0, 1, 2]), rng=st.randoms(use_true_random=False))
def test_poly_concept_label_columns_raise_at_the_first_point_off_pm1(data, r, rng):
    # Any polynomial, or a ±1-valued one. Over a ball the first point in list order need not be the least mask.
    poly = data.draw(_signed_polys())
    masks, full, columns = _point_sets(poly.n, 1 if r is None and poly.n > 7 else r, rng)
    c = PolyConcept(poly)
    try:
        expected = sum(c.label(m) << p for p, m in enumerate(masks))
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            c.label_columns(columns, full)
        assert str(raised.value) == str(error)
    else:
        assert c.label_columns(columns, full) == expected


def test_poly_concept_label_columns_name_the_first_point_in_list_order():
    # (x1 + x2) / 2 is 0 at -+ and +-; listed as the ball around ++, +- comes first.
    c = PolyConcept(SparsePoly(2, {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 2)}))
    with pytest.raises(ValueError, match=r"^polynomial value 0 at -\+ is not in \{-1,\+1\}$"):
        c.label_columns(cube_columns(2), 0b1111)
    with pytest.raises(ValueError, match=r"^polynomial value 0 at \+- is not in \{-1,\+1\}$"):
        c.label_columns(recentre(ball_columns(2, 2), 0b111, 0b11), 0b111)
