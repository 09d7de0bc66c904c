"""The 1-local-query DNF learner and its sample-size planner.

Phase 1 rebuilds one candidate term per distinct positive mask of the
first sample by flipping each coordinate and asking the oracle, the n flips
as one ``ask_flips`` batch, counting each query once per occurrence: an
answer of 1 means the variable is absent from the term, an answer of 0 keeps
the literal the example satisfies.
Phase 2 throws away every candidate that fires on a negative example of the
second sample. On instances whose positives are evident, phase 1 recovers
exact terms and phase 2 never removes a true one.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .concepts import DnfFormula, Term
from .cube import DimensionMismatch
from .distributions import LabeledSample
from .oracle import LocalMQOracle, OracleStats


@dataclass(frozen=True)
class SampleSizePlan:
    n: int
    epsilon: float
    m1: int
    m2: int


def plan_samples(n: int, epsilon: float, d: Optional[int] = None) -> SampleSizePlan:
    """Smallest integer sample sizes meeting the learner's guarantee bounds.

    Both stages use natural logarithms. The default first-stage bound is
    (32 n^3 / eps) ln(32 n^2 / eps); passing the term count d tightens it
    to (32 n d / eps) ln(32 d / eps). The second stage always needs
    (32 m1 / eps) ln(32 m1 / eps).
    """
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {epsilon}")
    if d is None:
        m1 = math.ceil((32 * n ** 3 / epsilon) * math.log(32 * n ** 2 / epsilon))
    else:
        if d < 1:
            raise ValueError(f"term count must be positive, got {d}")
        m1 = math.ceil((32 * n * d / epsilon) * math.log(32 * d / epsilon))
    m2 = math.ceil((32 * m1 / epsilon) * math.log(32 * m1 / epsilon))
    return SampleSizePlan(n, epsilon, m1, m2)


def reconstruct_term(x: int, oracle: LocalMQOracle, times: int = 1) -> Term:
    """Recover the term a positive example's mask x satisfies, one flip per coordinate.

    Issues exactly n queries, each at distance 1 from x, as one
    ``ask_flips`` batch, and counts each ``times`` times: once per
    occurrence of x in the sample. Starting from the conjunction of all
    literals over all variables, an answer of 1 at coordinate j removes both
    of j's literals, and an answer of 0 removes the literal x violates,
    keeping the one x satisfies. The oracle refuses a mask out of range.
    """
    n = oracle.n
    positives, negatives = set(), set()
    for j, answer in enumerate(oracle.ask_flips(x, times), 1):
        if answer == 0:
            (positives if x >> (n - j) & 1 else negatives).add(j)
    return Term(frozenset(positives), frozenset(negatives))


@dataclass(frozen=True)
class LearnerRun:
    formula: DnfFormula
    oracle_stats: OracleStats
    positives_seen: int
    terms_added: int
    terms_pruned: int
    phase1_seconds: float
    phase2_seconds: float


def learn_evident_dnf(s1: LabeledSample, s2: LabeledSample, oracle: LocalMQOracle) -> DnfFormula:
    """Two-phase DNF learner using only 1-local queries around s1's positives."""
    return learn_evident_dnf_run(s1, s2, oracle).formula


def learn_evident_dnf_run(s1: LabeledSample, s2: LabeledSample, oracle: LocalMQOracle) -> LearnerRun:
    """Like ``learn_evident_dnf`` but with query statistics and phase timings."""
    n = oracle.n
    if s1.n != n or s2.n != n:
        raise DimensionMismatch(f"sample dimensions {s1.n}/{s2.n} differ from oracle {n}")
    t0 = time.perf_counter()
    occurrences = Counter(compress(s1.masks, s1.labels))
    collected: dict[Term, None] = {}
    for x, times in occurrences.items():
        collected.setdefault(reconstruct_term(x, oracle, times))
    t1 = time.perf_counter()
    negative_masks = {m for m, y in zip(s2.masks, s2.labels) if y == 0}
    surviving = []
    pruned = 0
    for term in collected:
        pos, neg = term.masks(n)
        if any((m & pos) == pos and (m & neg) == 0 for m in negative_masks):
            pruned += 1
        else:
            surviving.append(term)
    t2 = time.perf_counter()
    return LearnerRun(
        formula=DnfFormula(n, tuple(surviving)),
        oracle_stats=oracle.stats(),
        positives_seen=sum(occurrences.values()),
        terms_added=len(collected),
        terms_pruned=pruned,
        phase1_seconds=t1 - t0,
        phase2_seconds=t2 - t1,
    )
