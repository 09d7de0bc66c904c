import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cubes import cube_points
from lmqlab.concepts import DecisionTree, DnfFormula, Leaf, Node, Term, random_dnf, random_tree
from lmqlab.cube import CubePoint, DimensionMismatch, ReplicateMap
from lmqlab.distributions import FiniteSupport, ProductDist, UniformCube, pushforward
from lmqlab.evident import (
    doubling_dnf,
    evidence_report,
    evident_tables,
    flip_table,
    flips_reveal_term,
    gen_opposite_literal_dnf,
    satisfies_evidently,
)


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


OPPOSITE = DnfFormula(2, (Term.of(1, 2), Term.of(-1, -2)))


class TestSatisfiesEvidently:
    def test_shared_point_is_not_evident(self):
        f = DnfFormula(2, (Term.of(1), Term.of(2)))
        assert satisfies_evidently(f, 0, P("++").mask) is False

    def test_opposite_terms_point_is_evident(self):
        assert satisfies_evidently(OPPOSITE, 0, P("++").mask) is True

    def test_free_coordinate_keeps_evidence(self):
        f = DnfFormula(3, (Term.of(1, 2),))
        assert satisfies_evidently(f, 0, P("+++").mask) is True

    def test_flip_into_other_term_blocks_evidence(self):
        # (+-) satisfies only x1, but flipping coordinate 2 reaches (++)
        # where both terms fire.
        f = DnfFormula(2, (Term.of(1), Term.of(2)))
        assert satisfies_evidently(f, 0, P("+-").mask) is False

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            satisfies_evidently(OPPOSITE, 2, P("++").mask)

    def test_non_satisfying_point(self):
        assert satisfies_evidently(OPPOSITE, 0, P("-+").mask) is False


class TestFlipsRevealTerm:
    def test_free_variable_flip_stays_positive(self):
        f = DnfFormula(3, (Term.of(1, 2),))
        assert flips_reveal_term(f, 0, P("+++").mask) is True

    def test_opposite_terms(self):
        assert flips_reveal_term(OPPOSITE, 0, P("++").mask) is True

    def test_constant_one_formula_vacuous(self):
        f = DnfFormula(2, (Term(frozenset(), frozenset()),))
        for x in cube_points(2):
            assert flips_reveal_term(f, 0, x.mask) is True

    def test_requires_evident_point(self):
        f = DnfFormula(2, (Term.of(1), Term.of(2)))
        with pytest.raises(ValueError):
            flips_reveal_term(f, 0, P("++").mask)

    def test_holds_on_random_corpus(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 8)
            terms = []
            for _ in range(rng.randint(1, 4)):
                width = rng.randint(1, min(4, n))
                variables = rng.sample(range(1, n + 1), width)
                pos = frozenset(j for j in variables if rng.random() < 0.5)
                terms.append(Term(pos, frozenset(variables) - pos))
            f = DnfFormula(n, tuple(terms))
            for x in cube_points(n):
                hit = f.satisfied_indices(x.mask)
                if len(hit) == 1 and satisfies_evidently(f, hit[0], x.mask):
                    assert flips_reveal_term(f, hit[0], x.mask) is True
                    checked += 1
        assert checked > 100


@pytest.mark.parametrize(
    "reference",
    [
        lambda f, x: f.satisfied_indices(x),
        lambda f, x: satisfies_evidently(f, 0, x),
        lambda f, x: flips_reveal_term(f, 0, x),
    ],
    ids=["satisfied_indices", "satisfies_evidently", "flips_reveal_term"],
)
@pytest.mark.parametrize("mask", [-1, 1 << OPPOSITE.n])
def test_mask_references_refuse_out_of_range_masks(reference, mask):
    # Out-of-range masks are refused, not read modulo 2^n.
    with pytest.raises(DimensionMismatch):
        reference(OPPOSITE, mask)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(0, 5), width=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_truth_table_kernel_matches_pointwise_code(n, d, width, seed):
    # The truth tables against satisfied_indices, satisfies_evidently and CubePoint.flip, on every point.
    formula = random_dnf(n, d, width, random.Random(seed))
    sat, h_table, evident = evident_tables(formula)
    tables = sat + [h_table]
    flipped = {j: [flip_table(t, n, j) for t in tables] for j in range(1, n + 1)}
    for x in cube_points(n):
        hit = formula.satisfied_indices(x.mask)
        assert [(t >> x.mask) & 1 for t in sat] == [int(i in hit) for i in range(d)]
        assert (h_table >> x.mask) & 1 == formula.evaluate(x)
        for i, ev in enumerate(evident):
            assert (ev >> x.mask) & 1 == satisfies_evidently(formula, i, x.mask)
        for j, row in flipped.items():
            y = x.flip(j).mask
            assert [(t >> x.mask) & 1 for t in row] == [(t >> y) & 1 for t in tables]


def _reference_evidence(formula, dist):
    """Per-term satisfied and evident masses, read pointwise at every support point."""
    sat = [Fraction(0)] * len(formula.terms)
    evi = [Fraction(0)] * len(formula.terms)
    for mask, prob in dist.support():
        hit = formula.satisfied_indices(mask)
        for i in hit:
            sat[i] += prob
        if len(hit) == 1 and satisfies_evidently(formula, hit[0], mask):
            evi[hit[0]] += prob
    return list(zip(sat, evi))


@st.composite
def formulas_under_distributions(draw):
    """DNFs of 0-5 terms, possibly with an empty term, under the four distribution kinds."""
    kind = draw(st.sampled_from(["uniform", "product", "finite", "doubled"]))
    n = 2 * draw(st.integers(1, 4)) if kind == "doubled" else draw(st.integers(1, 8))
    d, width, seed = draw(st.integers(0, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 2**32))
    terms = random_dnf(n, d, width, random.Random(seed)).terms
    if terms and draw(st.booleans()):
        i = draw(st.integers(0, len(terms) - 1))
        terms = terms[:i] + (Term.of(),) + terms[i + 1 :]
    if kind == "uniform":
        dist = UniformCube(n)
    elif kind == "product":
        probs = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        dist = ProductDist(n, tuple(draw(st.lists(st.sampled_from(probs), min_size=n, max_size=n))))
    elif kind == "finite":
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
        weights = draw(st.lists(st.integers(1, 20), min_size=len(masks), max_size=len(masks)))
        dist = FiniteSupport(n, tuple((m, Fraction(w, sum(weights))) for m, w in zip(masks, weights)))
    else:
        dist = pushforward(UniformCube(n // 2), ReplicateMap(n // 2, 2))
    return DnfFormula(n, terms), dist


@settings(max_examples=200, deadline=None)
@given(formulas_under_distributions())
def test_evidence_report_matches_pointwise_reference(case):
    formula, dist = case
    report = evidence_report(formula, dist)
    got = [(t.p_satisfied, t.p_evident) for t in report.terms]
    assert got == _reference_evidence(formula, dist)


class TestEvidenceReport:
    def test_opposite_terms_fully_evident(self):
        report = evidence_report(OPPOSITE, UniformCube(2), beta=Fraction(1, 2))
        assert report.passed is True
        assert [t.conditional for t in report.terms] == [Fraction(1), Fraction(1)]

    def test_overlapping_terms_fail(self):
        f = DnfFormula(2, (Term.of(1), Term.of(2)))
        report = evidence_report(f, UniformCube(2), beta=Fraction(1, 2))
        # Each term is satisfied on two points; neither point is evident:
        # one fires both terms, the other flips into it.
        for t in report.terms:
            assert t.p_satisfied == Fraction(1, 2)
            assert t.conditional == Fraction(0)
            assert t.passed is False
        assert report.passed is False

    def test_zero_mass_term_passes_vacuously(self):
        f = DnfFormula(2, (Term.of(1), Term.of(-1)))
        dist = FiniteSupport(2, ((P("++").mask, Fraction(1)),))
        report = evidence_report(f, dist, beta=Fraction(1))
        assert report.terms[1].vacuous is True
        assert report.terms[1].passed is True

    def test_default_beta_is_one_over_n(self):
        report = evidence_report(OPPOSITE, UniformCube(2))
        assert report.beta == Fraction(1, 2)

    @pytest.mark.parametrize("beta", [Fraction(-3), Fraction(0), Fraction(3, 2)])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\]"):
            evidence_report(OPPOSITE, UniformCube(2), beta=beta)

    def test_finite_support_above_enumeration_cap_refused(self):
        # The truth tables have 2^n bits, so a wide support is refused before any is built.
        f = DnfFormula(25, (Term.of(1),))
        with pytest.raises(ValueError, match="^enumerated cube dimension: 25 exceeds the cap of 24$"):
            evidence_report(f, FiniteSupport(25, ((0, Fraction(1)),)))

    def test_dimension_mismatch_fails_fast(self):
        from lmqlab.cube import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            evidence_report(OPPOSITE, UniformCube(3))


class TestGenerator:
    def test_pairwise_opposite_literals(self):
        rng = random.Random(0)
        for _ in range(30):
            n = rng.randint(3, 9)
            width = rng.randint(2, min(4, n))
            d = rng.randint(1, 1 << (width - 1))
            f = gen_opposite_literal_dnf(n, d, width, seed=rng.randrange(1 << 30))
            assert len(f.terms) == d
            for i, a in enumerate(f.terms):
                assert a.width == width
                for b in f.terms[i + 1 :]:
                    opposite = len(a.positives & b.negatives) + len(a.negatives & b.positives)
                    assert opposite >= 2

    def test_every_satisfying_point_is_evident(self):
        for seed in range(8):
            f = gen_opposite_literal_dnf(6, 3, 3, seed=seed)
            report = evidence_report(f, UniformCube(6), beta=Fraction(1))
            assert report.passed is True
            for x in cube_points(6):
                hit = f.satisfied_indices(x.mask)
                if hit:
                    assert len(hit) == 1
                    assert satisfies_evidently(f, hit[0], x.mask)

    def test_single_term_always_evident(self):
        f = gen_opposite_literal_dnf(4, 1, 2, seed=5)
        for x in cube_points(4):
            hit = f.satisfied_indices(x.mask)
            if hit:
                assert satisfies_evidently(f, 0, x.mask)

    def test_infeasible_parameters_raise(self):
        with pytest.raises(ValueError):
            gen_opposite_literal_dnf(6, 3, 2, seed=0)
        with pytest.raises(ValueError):
            gen_opposite_literal_dnf(4, 2, 1, seed=0)
        with pytest.raises(ValueError):
            gen_opposite_literal_dnf(2, 2, 3, seed=0)

    def test_deterministic_in_seed(self):
        a = gen_opposite_literal_dnf(7, 4, 3, seed=123)
        b = gen_opposite_literal_dnf(7, 4, 3, seed=123)
        assert a == b


class TestDoubling:
    def test_phi_duplicates_coordinates(self):
        assert ReplicateMap(2, 2).apply(P("+-")) == P("++--")

    def test_term_doubling(self):
        tree = DecisionTree(2, Node(1, Node(2, Leaf(1), Leaf(0)), Leaf(0)))
        f = doubling_dnf(tree)
        assert set(t.signed() for t in f.terms) == {(-1, -2, -3, -4)}

    def test_spec_tree_example(self):
        tree = DecisionTree(2, Node(1, Node(2, Leaf(1), Leaf(0)), Leaf(1)))
        f = doubling_dnf(tree)
        assert set(t.signed() for t in f.terms) == {(1, 2), (-1, -2, -3, -4)}
        for x in cube_points(2):
            assert tree.evaluate(x) == f.evaluate(ReplicateMap(2, 2).apply(x))

    def test_doubling_makes_positives_evident(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 5)
            tree = random_tree(n, rng.randint(2, min(32, 1 << n)), rng)
            f = doubling_dnf(tree)
            assert len(f.terms) <= tree.leaf_count
            for x in cube_points(n):
                if tree.evaluate(x) == 1:
                    z = ReplicateMap(n, 2).apply(x)
                    hit = f.satisfied_indices(z.mask)
                    assert len(hit) == 1
                    assert satisfies_evidently(f, hit[0], z.mask)


# ---------------------------------------------------------------------------
# Differential reference for the pointwise evident checks: every term and every point at n <= 4, against the
# definition read through Term.satisfied_by and CubePoint.flip alone. "Another term" means another position, so the
# formulas include duplicate and empty terms.


def _hits(formula: DnfFormula, x: CubePoint) -> list[int]:
    return [k for k, term in enumerate(formula.terms) if term.satisfied_by(x)]


def _evident_by_definition(formula: DnfFormula, i: int, x: CubePoint) -> bool:
    flips = [x.flip(j) for j in range(1, formula.n + 1)]
    return _hits(formula, x) == [i] and all(_hits(formula, z) in ([], [i]) for z in flips)


def _reveals_by_definition(formula: DnfFormula, i: int, x: CubePoint) -> bool:
    variables = formula.terms[i].variables
    return all(bool(_hits(formula, x.flip(j))) == (j not in variables) for j in range(1, formula.n + 1))


def _small_formulas(n: int) -> list[DnfFormula]:
    """Every formula of at most 3 terms at n <= 2; at n = 3 and 4, 150 random ones, some with an empty term or a
    term repeated at another position."""
    if n <= 2:
        terms = [Term.of(*(s * j for j, s in enumerate(signs, 1) if s)) for signs in product((1, -1, 0), repeat=n)]
        return [DnfFormula(n, chosen) for d in range(4) for chosen in product(terms, repeat=d)]
    rng, formulas = random.Random(4200 + n), []
    for _ in range(150):
        terms = list(random_dnf(n, rng.randint(0, 4), rng.randint(1, n), rng).terms)
        if terms and rng.random() < 0.5:
            terms.insert(rng.randint(0, len(terms)), rng.choice(terms))
        if rng.random() < 0.3:
            terms.insert(rng.randint(0, len(terms)), Term.of())
        formulas.append(DnfFormula(n, tuple(terms)))
    return formulas


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evident_checks_match_the_definition_on_every_term_and_point(n):
    seen = Counter()
    for formula in _small_formulas(n):
        duplicated = len(set(formula.terms)) < len(formula.terms)
        for i in range(len(formula.terms)):
            for x in cube_points(n):
                evident = _evident_by_definition(formula, i, x)
                assert satisfies_evidently(formula, i, x.mask) is evident
                if evident:
                    assert flips_reveal_term(formula, i, x.mask) is _reveals_by_definition(formula, i, x)
                else:
                    with pytest.raises(ValueError, match="^point is not evident for the given term$"):
                        flips_reveal_term(formula, i, x.mask)
                seen[evident, duplicated] += 1
    # Not vacuous: evident and non-evident points both occur, and a formula with a repeated term is checked.
    assert seen[True, False] and seen[False, False] and seen[False, True]


@pytest.mark.parametrize(
    "check", [satisfies_evidently, flips_reveal_term], ids=["satisfies_evidently", "flips_reveal_term"]
)
@pytest.mark.parametrize(
    "i, x, error, message",
    [
        (2, 0, ValueError, "term index 2 out of range for 2 terms"),
        (-1, 0, ValueError, "term index -1 out of range for 2 terms"),
        (True, 0, ValueError, "term index True out of range for 2 terms"),
        (1.0, 0, ValueError, "term index 1.0 out of range for 2 terms"),
        (0, 4, DimensionMismatch, "mask 4 out of range for dimension 2"),
        (0, -1, DimensionMismatch, "mask -1 out of range for dimension 2"),
        (0, True, DimensionMismatch, "mask True out of range for dimension 2"),
        (0, 1.0, DimensionMismatch, "mask 1.0 out of range for dimension 2"),
        (2, 4, ValueError, "term index 2 out of range for 2 terms"),  # the index is checked first
    ],
)
def test_evident_checks_refuse_a_bad_index_or_mask_with_one_message(check, i, x, error, message):
    with pytest.raises(ValueError) as exc:
        check(OPPOSITE, i, x)
    assert exc.type is error and str(exc.value) == message
