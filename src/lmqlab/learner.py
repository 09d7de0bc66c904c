"""The 1-local-query DNF learner and its sample-size planner.

Phase 1 rebuilds one candidate term per distinct positive mask of the
first sample by flipping each coordinate and asking the oracle:
``reconstruct_terms`` asks every positive's n flips in one ``ask_flips_many``
call, counting each query once per occurrence; the oracle stores that call
as one batch record and calls the target's ``flip_labels`` once per read
pattern (``x & reads``) of the positives, at most 2^r times for a target
reading r coordinates. An answer of 1 means the
variable is absent from the term, an answer of 0 keeps the literal the
example satisfies. The corpus audit (``harness.run_reconstruction_corpus``)
calls ``reconstruct_terms`` too, once per parity class of a formula's evident
points; ``reconstruct_term`` is its one-positive form. Candidates stay int
mask pairs.
Phase 2 (``prune_terms``) throws away every candidate that fires on a negative
example of the second sample. It reads only that sample's ``cover``, its
labelled support (at most 256 points when drawn by index, however many the
draws, and drawn by the first block that draws them all), bit-sliced: a block
of lanes at a time, as the draws are labelled in ``distributions``, with the
block's negatives one lane mask, so each candidate costs one ``Term.table``
per block until it is dropped. On instances whose positives are evident, phase
1 recovers exact terms and phase 2 never removes a true one.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Collection, Mapping, Optional

from .concepts import DnfFormula, Term
from .cube import lane_columns, require_count, require_dimension
from .distributions import _DRAW_BLOCK, LabeledSample
from .oracle import LocalMQOracle, OracleStats

# Label bytes 0 and 1 swapped: a byte 1 at each of s2's cover's negatives.
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


def reconstruct_terms(oracle: LocalMQOracle, counts: Mapping[int, int]) -> list[tuple[int, int]]:
    """Recover the masks of the term each positive mask x of ``counts`` satisfies, one flip per coordinate.

    The one phase-1 step: a single ``ask_flips_many(counts)`` call, so each x's n queries, each at distance 1
    from x, are counted ``counts[x]`` times. An answer of 1 at a coordinate drops both of its literals, and an
    answer of 0 keeps the literal x satisfies. Returns one (must-be-+1 mask, must-be--1 mask) pair per x, in the
    order of ``counts``, the form ``Term.masks(n)`` gives. The oracle refuses a mask out of range.
    """
    full = (1 << oracle.n) - 1  # x is in range, so x & ~bits is x & kept for kept = ~bits & full
    return [(x & ~bits, full & ~(x | bits)) for x, bits in zip(counts, oracle.ask_flips_many(counts))]


def reconstruct_term(x: int, oracle: LocalMQOracle) -> tuple[int, int]:
    """``reconstruct_terms`` on the one positive mask x, asked once: exactly n queries, and x's term's masks."""
    return reconstruct_terms(oracle, {x: 1})[0]


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


def prune_terms(candidates: Collection[tuple[int, int]], s2: LabeledSample) -> list[Term]:
    """Phase 2: the ``Term`` of each candidate (pos, neg) mask pair over s2's n variables, in order, less every one
    that fires on a negative example of s2, read from its ``cover`` alone.

    The cover is read ``_DRAW_BLOCK`` lanes at a time (``lane_columns`` over the candidates' read coordinates).
    A block's negatives are one lane mask, its label bytes swapped by ``NEGATE`` and spread to the lane width, and
    a candidate is dropped at the first block where its ``Term.table`` over those lanes is not 0; the scan stops
    once none is left.
    """
    n = s2.n
    surviving = [Term.from_masks(n, pos, neg) for pos, neg in candidates]
    masks, labels = s2.cover
    reads = reduce(or_, (pos | neg for pos, neg in candidates), 0)
    for start in range(0, len(labels), _DRAW_BLOCK):
        if not surviving:
            break
        columns, _, width = lane_columns(masks[start:start + _DRAW_BLOCK], n, reads)
        block = labels[start:start + _DRAW_BLOCK].translate(NEGATE)
        spread = bytearray(width * len(block))  # each label byte at its lane's lowest byte
        spread[::width] = block
        negatives = int.from_bytes(spread, "little")
        surviving = [term for term in surviving if not term.table(columns, negatives)]
    return surviving


def learn_evident_dnf_run(s1: LabeledSample, s2: LabeledSample, oracle: LocalMQOracle) -> LearnerRun:
    """Like ``learn_evident_dnf`` but with query statistics and phase timings: phase 1 is ``reconstruct_terms`` on
    s1's positives, phase 2 ``prune_terms`` of its distinct candidates on s2."""
    n = oracle.n
    for s in (s1, s2):
        require_dimension("sample", s.n, n)
    t0 = time.perf_counter()
    occurrences = Counter(compress(s1.masks, s1.labels))
    collected = dict.fromkeys(reconstruct_terms(oracle, occurrences))
    t1 = time.perf_counter()
    surviving = prune_terms(collected, s2)
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
