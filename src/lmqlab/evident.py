"""Evident satisfaction of DNF terms, and instance generators guaranteeing it.

A point satisfies a term *evidently* when it satisfies that term alone and
no single coordinate flip can deactivate the term while leaving the formula
true through a different term. Such points let a learner read the term off
the formula one flip at a time, which is what the whole positive result
rests on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .concepts import DecisionTree, DnfFormula, Term, dnf_of_tree
from .cube import CubePoint, DimensionMismatch, ReplicateMap
from .distributions import Distribution


def satisfies_evidently(formula: DnfFormula, i: int, x: CubePoint) -> bool:
    """True iff x satisfies term i (0-based) of the formula evidently.

    Three conditions: x satisfies term i; x satisfies no other term; and
    every one-flip neighbor that still satisfies the formula satisfies
    term i and only term i.
    """
    if not 0 <= i < len(formula.terms):
        raise ValueError(f"term index {i} out of range for {len(formula.terms)} terms")
    if formula.satisfied_indices(x) != (i,):
        return False
    for j in range(1, formula.n + 1):
        hit = formula.satisfied_indices(x.flip(j))
        if hit and hit != (i,):
            return False
    return True


def flips_reveal_term(formula: DnfFormula, i: int, x: CubePoint) -> bool:
    """Check the flip biconditional at an evident point.

    For every coordinate j, flipping j must keep the formula satisfied
    exactly when variable j does not occur in term i. Requires x to be
    evident for term i.
    """
    if not satisfies_evidently(formula, i, x):
        raise ValueError("point is not evident for the given term")
    term_vars = formula.terms[i].variables
    for j in range(1, formula.n + 1):
        stays_true = formula.evaluate(x.flip(j)) == 1
        if stays_true != (j not in term_vars):
            return False
    return True


@dataclass(frozen=True)
class TermEvidence:
    index: int
    satisfaction_probability: Fraction
    evident_probability: Fraction
    conditional: Optional[Fraction]
    vacuous: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "term": self.index,
            "p_satisfied": str(self.satisfaction_probability),
            "p_evident": str(self.evident_probability),
            "conditional": None if self.conditional is None else str(self.conditional),
            "vacuous": self.vacuous,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class EvidenceReport:
    beta: Fraction
    terms: tuple[TermEvidence, ...]

    @property
    def verdict(self) -> bool:
        return all(t.passed for t in self.terms)

    def to_dict(self) -> dict:
        return {
            "beta": str(self.beta),
            "verdict": self.verdict,
            "terms": [t.to_dict() for t in self.terms],
        }


def evidence_report(
    formula: DnfFormula, dist: Distribution, beta: Optional[Fraction] = None
) -> EvidenceReport:
    """Exact per-term evidence rates under an enumerable distribution.

    A term passes when its conditional evident probability reaches beta
    (default 1/n); terms the distribution never satisfies pass vacuously.
    A beta outside (0, 1] is a ValueError.
    """
    if dist.n != formula.n:
        raise DimensionMismatch(
            f"formula over {formula.n} variables, distribution over {dist.n}"
        )
    if beta is None:
        beta = Fraction(1, formula.n)
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    sat = [Fraction(0)] * len(formula.terms)
    evi = [Fraction(0)] * len(formula.terms)
    for point, prob in dist.support():
        hit = formula.satisfied_indices(point)
        for i in hit:
            sat[i] += prob
        if len(hit) == 1 and satisfies_evidently(formula, hit[0], point):
            evi[hit[0]] += prob
    entries = []
    for i in range(len(formula.terms)):
        if sat[i] == 0:
            entries.append(TermEvidence(i, sat[i], evi[i], None, True, True))
        else:
            cond = evi[i] / sat[i]
            entries.append(TermEvidence(i, sat[i], evi[i], cond, False, cond >= beta))
    return EvidenceReport(Fraction(beta), tuple(entries))


def gen_opposite_literal_dnf(n: int, d: int, term_width: int, seed: int) -> DnfFormula:
    """Random DNF whose distinct terms pairwise disagree on two shared variables.

    With two opposite literals between every term pair, a single flip can
    never move a satisfying point of one term into another, so every
    satisfying point of every term is evident. All terms share one random
    variable subset and take sign patterns from a shifted even-weight code,
    whose minimum distance 2 is exactly the pairwise-opposite requirement.
    At most 2^(width-1) such terms exist; asking for more raises.
    """
    if term_width < 2:
        raise ValueError(f"term width must be at least 2, got {term_width}")
    if term_width > n:
        raise ValueError(f"term width {term_width} exceeds dimension {n}")
    if d < 1:
        raise ValueError(f"term count must be positive, got {d}")
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
