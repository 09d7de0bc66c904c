"""The 1-local-query DNF learner and its sample-size planner.

Phase 1 rebuilds one candidate term per distinct positive mask of the
first sample by flipping each coordinate and asking the oracle, every
positive's n flips in one ``ask_flips_many`` call, counting each query once
per occurrence: an answer of 1 means the variable is absent from the term,
an answer of 0 keeps the literal the example satisfies (``reconstruct_term``
is the one-positive form). Candidates stay int mask pairs.
Phase 2 throws away every candidate that fires on a negative example of the
second sample. It reads only that sample's ``cover``, its labelled support
(at most 256 points when drawn by index, however many the draws), in two
passes in C (the cover's label bytes swapped, then its masks compressed by
them); only survivors become ``Term``s. On instances whose positives are
evident, phase 1 recovers exact terms and phase 2 never removes a true one.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from .concepts import DnfFormula, Term
from .cube import require_count, require_dimension
from .distributions import LabeledSample
from .oracle import LocalMQOracle, OracleStats

# Label bytes 0 and 1 swapped: compressing s2's cover masks by it keeps the negatives.
NEGATE = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True)
class SampleSizePlan:
    n: int
    epsilon: float
    m1: int
    m2: int


def require_epsilon(epsilon: float) -> None:
    """Refuse an accuracy parameter outside the open interval (0, 1), nan included, or one that is not a float."""
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not isinstance(epsilon, float):
        raise ValueError(f"epsilon must be a float, got {epsilon!r}")


def plan_samples(n: int, epsilon: float, d: Optional[int] = None) -> SampleSizePlan:
    """Smallest integer sample sizes meeting the learner's guarantee bounds.

    Both stages use natural logarithms. The default first-stage bound is
    (32 n^3 / eps) ln(32 n^2 / eps); passing the term count d tightens it
    to (32 n d / eps) ln(32 d / eps). The second stage always needs
    (32 m1 / eps) ln(32 m1 / eps).
    """
    require_count(n, 1, "dimension must be a positive integer")
    require_epsilon(epsilon)
    if d is None:
        m1 = math.ceil((32 * n ** 3 / epsilon) * math.log(32 * n ** 2 / epsilon))
    else:
        require_count(d, 1, "term count must be positive")
        m1 = math.ceil((32 * n * d / epsilon) * math.log(32 * d / epsilon))
    m2 = math.ceil((32 * m1 / epsilon) * math.log(32 * m1 / epsilon))
    return SampleSizePlan(n, epsilon, m1, m2)


def reconstruct_term(x: int, oracle: LocalMQOracle, times: int = 1) -> tuple[int, int]:
    """Recover the masks of the term a positive example's mask x satisfies, one flip per coordinate.

    Issues exactly n queries, each at distance 1 from x, as one
    ``ask_flips`` batch, and counts each ``times`` times: once per
    occurrence of x in the sample. An answer of 1 at a coordinate drops
    both of its literals, and an answer of 0 keeps the literal x satisfies.
    Returns (must-be-+1 mask, must-be--1 mask), the form ``Term.masks(n)``
    gives. The oracle refuses a mask out of range.
    """
    kept = ~oracle.ask_flips(x, times) & (1 << oracle.n) - 1
    return kept & x, kept & ~x


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
    """Like ``learn_evident_dnf`` but with query statistics and phase timings.

    Phase 2 drops a candidate (pos, neg) when some distinct negative mask m of s2 (read by ``NEGATE`` from the
    label bytes of its ``cover``, and nothing else of s2) has m & (pos | neg) == pos: as pos and neg are disjoint,
    the term fires on m.
    """
    n = oracle.n
    for s in (s1, s2):
        require_dimension("sample", s.n, n)
    t0 = time.perf_counter()
    occurrences = Counter(compress(s1.masks, s1.labels))
    full, answers = (1 << n) - 1, oracle.ask_flips_many(occurrences)
    collected = dict.fromkeys((x & kept, ~x & kept) for x, kept in zip(occurrences, [~bits & full for bits in answers]))
    t1 = time.perf_counter()
    negatives = set(compress(s2.cover[0], s2.cover[1].translate(NEGATE)))
    surviving = [
        Term.from_masks(n, pos, neg) for pos, neg in collected if pos not in map((pos | neg).__and__, negatives)
    ]
    t2 = time.perf_counter()
    return LearnerRun(
        formula=DnfFormula(n, tuple(surviving)),
        oracle_stats=oracle.stats(),
        positives_seen=sum(occurrences.values()),
        terms_added=len(collected),
        terms_pruned=len(collected) - len(surviving),
        phase1_seconds=t1 - t0,
        phase2_seconds=t2 - t1,
    )
