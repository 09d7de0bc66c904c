import random
from fractions import Fraction

import pytest

from lmqlab.concepts import (
    Dfa,
    DnfFormula,
    Junta,
    SparsePoly,
    SparsePtf,
    Term,
    parity_dfa,
    random_junta,
    random_tree,
)
from lmqlab.cube import CubePoint, ReplicateMap, enumerate_cube
from lmqlab.distributions import FiniteSupport, ProductDist, UniformCube
from lmqlab.formats import (
    dump_dfa,
    dump_dnf,
    dump_finite_support,
    dump_junta,
    dump_poly,
    dump_tree,
    parse_dfa,
    parse_distribution,
    parse_dnf,
    parse_finite_support,
    parse_junta,
    parse_poly,
    parse_tree,
)
from lmqlab.reductions import reduce_dfa_type_a


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def test_dnf_round_trip():
    f = DnfFormula(4, (Term.of(1, -2), Term.of(3), Term(frozenset(), frozenset())))
    assert parse_dnf(dump_dnf(f)) == f


def test_dnf_literal_lines():
    f = parse_dnf("1 -2\n")
    assert f.n == 2
    assert f.terms == (Term.of(1, -2),)


def test_dnf_dimension_inference_and_override():
    assert parse_dnf("2\n").n == 2
    assert parse_dnf("dim 6\n2\n").n == 6


def test_dnf_explicit_zero_dimension_rejected():
    with pytest.raises(ValueError, match="positive"):
        parse_dnf("dim 0\n1\n")


def test_tree_explicit_zero_dimension_rejected():
    with pytest.raises(ValueError, match="positive"):
        parse_tree("dim 0\n(1 0 1)\n")


def test_poly_explicit_zero_dimension_rejected():
    with pytest.raises(ValueError, match="positive"):
        parse_poly("dim 0\n1/2:\n")


def test_junta_explicit_zero_dimension_rejected():
    with pytest.raises(ValueError, match="positive"):
        parse_junta("dim 0\nrelevant:\ntable: 1\n")
    with pytest.raises(ValueError, match="positive"):
        Junta(-3, (), (0,))


def test_dnf_empty_term_marker():
    f = parse_dnf("dim 3\n0\n")
    assert f.terms[0].width == 0
    with pytest.raises(ValueError):
        parse_dnf("1 0 2\n")


def test_tree_round_trip_and_semantics():
    rng = random.Random(12)
    for _ in range(10):
        tree = random_tree(rng.randint(2, 5), rng.randint(2, 8), rng)
        parsed = parse_tree(dump_tree(tree))
        assert parsed.n == tree.n
        for x in enumerate_cube(tree.n):
            assert parsed.evaluate(x) == tree.evaluate(x)


def test_tree_parse_example():
    tree = parse_tree("(1 (2 1 0) 1)")
    assert tree.evaluate(P("--")) == 1
    assert tree.evaluate(P("-+")) == 0
    assert tree.evaluate(P("+-")) == 1


def test_tree_malformed():
    for text in ("(1 0)", "(1 0 1) extra", "(1 0 1", "(", "(1 " * 2000):
        with pytest.raises(ValueError):
            parse_tree(text)


def test_dfa_round_trip():
    a = parity_dfa(3)
    parsed = parse_dfa(dump_dfa(a))
    assert parsed.length == 3
    for x in enumerate_cube(3):
        assert parsed.evaluate(x) == a.evaluate(x)
    # Parity started in the odd state: the product's start is state 3, and
    # the file renumbers it 0 by first mention.
    odd_start = Dfa(((1, 0), (0, 1)), 1, frozenset({1}), 2)
    product = reduce_dfa_type_a(odd_start, ReplicateMap(2, 3))
    assert product.start != 0
    parsed = parse_dfa(dump_dfa(product))
    assert parsed.start == 0
    for z in enumerate_cube(6):
        assert parsed.evaluate(z) == product.evaluate(z)


def test_dfa_state_names_are_labels_numbered_by_first_mention():
    a = parse_dfa("len: 2\ntrans: x + y\ntrans: x - x\ntrans: y + x\ntrans: y - y\nstart: y\naccept: x\n")
    assert a == Dfa(((0, 1), (1, 0)), 1, frozenset({0}), 2)


@pytest.mark.parametrize(
    "text, missing",
    [
        ("len: 1\nstart: a\naccept: b\ntrans: b - b\ntrans: b + b\n", "('a', -1)"),
        ("len: 1\nstart: a\naccept: b\ntrans: a - a\ntrans: a + a\n", "('b', -1)"),
        ("len: 1\nstart: a\ntrans: a - a\n", "('a', 1)"),
    ],
    ids=["start", "accept", "one-symbol"],
)
def test_dfa_state_without_transitions_is_named(text, missing):
    with pytest.raises(ValueError) as exc:
        parse_dfa(text)
    assert str(exc.value) == f"transition missing for {missing}"


def test_dfa_requires_header_lines():
    with pytest.raises(ValueError):
        parse_dfa("trans: a + a\ntrans: a - a\n")


def test_dfa_transition_symbol_is_one_sign():
    with pytest.raises(ValueError, match="transition symbol"):
        parse_dfa("len: 1\nstart: a\ntrans: a +- a\ntrans: a - a\n")


@pytest.mark.parametrize("trans", ["trans: a +", "trans: a + b c", "trans:"])
def test_dfa_transition_line_needs_three_fields(trans):
    with pytest.raises(ValueError) as exc:
        parse_dfa(f"len: 1\nstart: a\n{trans}\ntrans: a - a\n")
    assert str(exc.value) == f"automaton line {trans!r} is not of the form 'trans: STATE (+|-) STATE'"


def test_poly_round_trip():
    p = SparsePoly(
        3, {frozenset({1, 3}): Fraction(-2, 7), frozenset(): Fraction(1, 2), frozenset({2}): Fraction(3)}
    )
    assert parse_poly(dump_poly(p)) == p


def test_ptf_round_trip():
    f = SparsePtf(SparsePoly(2, {frozenset({1}): Fraction(1)}), Fraction(-1, 3))
    parsed = parse_poly(dump_poly(f))
    assert isinstance(parsed, SparsePtf)
    assert parsed == f


def test_junta_round_trip():
    h = random_junta(5, 3, random.Random(3))
    assert parse_junta(dump_junta(h)) == h


def test_distribution_specs():
    assert parse_distribution("uniform:7") == UniformCube(7)
    product = parse_distribution("product:1/2,1/4")
    assert isinstance(product, ProductDist)
    assert product.plus_probs == (Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        parse_distribution("gaussian:3")


def test_finite_support_file_round_trip():
    dist = FiniteSupport(3, ((P("+-+"), Fraction(1, 4)), (P("---"), Fraction(3, 4))))
    assert parse_finite_support(dump_finite_support(dist)) == dist


def test_finite_support_file_spec(tmp_path):
    path = tmp_path / "d.dist"
    path.write_text("+- 1/3\n-+ 2/3\n")
    dist = parse_distribution(f"file:{path}")
    assert dist == FiniteSupport(2, ((P("+-"), Fraction(1, 3)), (P("-+"), Fraction(2, 3))))


def test_comments_and_blank_lines_ignored():
    f = parse_dnf("# a comment\n\ndim 3\n1 -3\n")
    assert f == DnfFormula(3, (Term.of(1, -3),))
