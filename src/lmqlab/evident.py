"""Evident satisfaction of DNF terms, and instance generators guaranteeing it.

A point satisfies a term *evidently* when it satisfies that term alone and
no single coordinate flip can deactivate the term while leaving the formula
true through a different term. Such points let a learner read the term off
the formula one flip at a time, which is what the whole positive result
rests on.

This module owns the evident truth tables: ``evident_tables`` holds each set
as a 2^n-bit int whose bit ``mask`` is the entry at that point, built with
``Term.table`` over the whole cube's columns. The harness's corpus reads them,
and ``evidence_report`` sums ``support_weights`` at their set bits, iterating
no distribution. Their reference, pointwise on masks one flip at a time, is
``satisfies_evidently`` and ``flips_reveal_term``; the tests cross-check both,
and check both against the definition read through ``Term.satisfied_by`` and
``CubePoint.flip``. Each checks its term index and mask once, then reads the
flips of the mask unchecked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

from .concepts import DecisionTree, DnfFormula, Term, dnf_of_tree
from .cube import (
    ReplicateMap, cube_columns, exact_rational, is_int, require_count, require_dimension, require_enumerable
)
from .distributions import Distribution, support_weights
from .formats import Verdict, canonical


def satisfies_evidently(formula: DnfFormula, i: int, x: int) -> bool:
    """True iff the point with mask x satisfies term i (0-based) of the formula evidently.

    Three conditions: x satisfies term i; x satisfies no other term; and
    every one-flip neighbor that still satisfies the formula satisfies
    term i and only term i. The index i and the mask x are checked once, x by
    ``satisfied_indices(x)``; the n flips of x, in range as x is, are then
    tested unchecked against the masks of the terms at every other position,
    a duplicate of term i included.
    """
    if not is_int(i, 0, len(formula.terms) - 1):
        raise ValueError(f"term index {i!r} out of range for {len(formula.terms)} terms")
    if formula.satisfied_indices(x) != (i,):
        return False
    others = [masks for k, masks in enumerate(formula._masks) if k != i]
    for b in range(formula.n):
        z = x ^ 1 << b
        for pos, neg in others:
            if (z & pos) == pos and not z & neg:
                return False
    return True


def flips_reveal_term(formula: DnfFormula, i: int, x: int) -> bool:
    """Check the flip biconditional at the evident point with mask x.

    For every coordinate j, flipping j must keep the formula satisfied
    exactly when variable j does not occur in term i. Requires x to be
    evident for term i.
    """
    if not satisfies_evidently(formula, i, x):
        raise ValueError("point is not evident for the given term")
    term_vars = formula.terms[i].variables
    for j in range(1, formula.n + 1):
        stays_true = formula.label(x ^ (1 << (formula.n - j))) == 1
        if stays_true != (j not in term_vars):
            return False
    return True


def flip_table(table: int, n: int, j: int) -> int:
    """Bitset whose entry at x is the entry of the input at x with j flipped."""
    stride = 1 << (n - j)
    low = ~cube_columns(n)[n - j]
    return ((table >> stride) & low) | ((table & low) << stride)


def evident_tables(formula: DnfFormula) -> tuple[list[int], int, list[int]]:
    """Per-term satisfaction tables, the formula table, and evident-point tables (n <= ``ENUMERATION_CAP``)."""
    n = formula.n
    require_enumerable(n)
    full, columns = (1 << (1 << n)) - 1, cube_columns(n)
    sat = [t.table(columns, full) for t in formula.terms]
    h_table = twice = 0  # points satisfying at least one term, and at least two
    for t in sat:
        twice |= h_table & t
        h_table |= t
    evident = []
    for table in sat:
        exactly = table & ~twice
        ok = (full ^ h_table) | exactly
        ev = exactly
        for j in range(1, n + 1):
            if not ev:
                break
            ev &= flip_table(ok, n, j)
        evident.append(ev)
    return sat, h_table, evident


@dataclass(frozen=True)
class TermEvidence:
    term: int
    p_satisfied: Fraction
    p_evident: Fraction
    conditional: Optional[Fraction]
    vacuous: bool
    passed: bool

    def to_dict(self) -> dict:
        return canonical(self)


@dataclass(frozen=True)
class EvidenceReport(Verdict):
    beta: Fraction
    terms: tuple[TermEvidence, ...]

    def clauses(self) -> dict[str, bool]:
        return {"terms": all(t.passed for t in self.terms),
                "some_term_satisfied": not all(t.vacuous for t in self.terms)}

    def to_dict(self) -> dict:
        return canonical(self, verdict=self.passed)


def evidence_report(
    formula: DnfFormula, dist: Distribution, beta: Optional[Fraction] = None
) -> EvidenceReport:
    """Exact per-term evidence rates under an enumerable distribution: the ``support_weights`` at each table's bits.

    A term passes when its conditional evident probability reaches beta
    (default 1/n); terms the distribution never satisfies pass vacuously, but
    the report fails if every term does, as it then checked no point.
    Beta follows ``exact_rational``'s rule, and a beta outside (0, 1] is a ValueError.
    """
    require_dimension("distribution", dist.n, formula.n)
    beta = Fraction(1, formula.n) if beta is None else exact_rational(beta, "beta")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    sat, _, evident = evident_tables(formula)
    masks, _, denominator = support_weights(dist)

    def mass(table: int) -> Fraction:  # the weights at the masks set in the table: byte m of bits is its bit m
        bits = format(table, f"0{1 << formula.n}b")[::-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        return Fraction(sum(compress(support_weights(dist)[1], map(bits.__getitem__, masks))), denominator)
    entries = []
    for i, (p_sat, p_evi) in enumerate(zip(map(mass, sat), map(mass, evident))):
        cond = p_evi / p_sat if p_sat else None
        entries.append(TermEvidence(i, p_sat, p_evi, cond, cond is None, cond is None or cond >= beta))
    return EvidenceReport(beta, tuple(entries))


def gen_opposite_literal_dnf(n: int, d: int, term_width: int, seed: int) -> DnfFormula:
    """Random DNF whose distinct terms pairwise disagree on two shared variables.

    With two opposite literals between every term pair, a single flip can
    never move a satisfying point of one term into another, so every
    satisfying point of every term is evident. All terms share one random
    variable subset and take sign patterns from a shifted even-weight code,
    whose minimum distance 2 is exactly the pairwise-opposite requirement.
    At most 2^(width-1) such terms exist; asking for more raises.
    """
    require_count(term_width, 2, "term width must be at least 2")
    if term_width > n:
        raise ValueError(f"term width {term_width} exceeds dimension {n}")
    require_count(d, 1, "term count must be positive")
    if d > 1 << (term_width - 1):
        raise ValueError(
            f"at most {1 << (term_width - 1)} pairwise-opposite terms of width "
            f"{term_width} exist, requested {d}"
        )
    rng = random.Random(seed)
    variables = rng.sample(range(1, n + 1), term_width)
    even_weight = [v for v in range(1 << term_width) if v.bit_count() % 2 == 0]
    shift = rng.randrange(1 << term_width)
    terms = []
    for code in rng.sample(even_weight, d):
        pattern = code ^ shift
        pos = frozenset(variables[t] for t in range(term_width) if (pattern >> t) & 1)
        terms.append(Term(pos, frozenset(variables) - pos))
    return DnfFormula(n, tuple(terms))


def doubling_dnf(tree: DecisionTree) -> DnfFormula:
    """DNF over 2n variables agreeing with the tree through ``ReplicateMap(n, 2)``.

    Each reachable 1-leaf path becomes a term reading both copies of every
    path variable. Turning one term off and another on then takes at least
    two flips, so every positive point maps to an evident one.
    """
    phi = ReplicateMap(tree.n, 2)
    terms = []
    for t in dnf_of_tree(tree).terms:
        pos = frozenset(v for j in t.positives for v in phi.block_coordinates(j))
        neg = frozenset(v for j in t.negatives for v in phi.block_coordinates(j))
        terms.append(Term(pos, neg))
    return DnfFormula(phi.target_n, tuple(terms))
