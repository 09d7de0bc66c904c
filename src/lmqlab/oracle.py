"""Example oracle and the locality-enforcing membership-query oracle.

A query for point z is q-local when some anchor (training point) lies
within Hamming distance q of z. The oracle refuses anything farther away
and logs every answer it gives, so learners can be audited after a run.
The core, ``ask(mask, times)``, checks and answers each distinct query once
and counts its repeats; ``log`` expands the counts, grouped by first asking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .concepts import Concept
from .cube import AnchorIndex, CubePoint, DimensionMismatch
from .distributions import Distribution, LabeledSample, sample

QUERY_BUDGET_FACTOR = 64


class LocalityViolation(RuntimeError):
    """A membership query fell outside the q-ball around the anchors."""

    def __init__(self, min_distance: int | None, q: int):
        self.min_distance = min_distance
        self.q = q
        where = "no anchors exist" if min_distance is None else f"nearest anchor at distance {min_distance}"
        super().__init__(f"query is not {q}-local: {where}")


class BudgetExhausted(RuntimeError):
    """The polynomial query budget was spent."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"query budget of {cap} exhausted")


@dataclass(frozen=True, slots=True)
class QueryRecord:
    point: CubePoint
    answer: int
    distance: int


@dataclass(frozen=True)
class OracleStats:
    query_count: int
    max_locality: int
    distance_histogram: dict[int, int]


class LocalMQOracle:
    """Answers target(z) for q-local queries only, logging each one.

    The target is the answer source: the true concept, or labels synthesized
    from training data alone (``reductions.SynthesizedLabels``).

    The default query cap is 64 * n * max(1, anchor count), a fixed
    polynomial budget in the sample size and dimension.
    """

    def __init__(
        self,
        target: Concept,
        anchors: Iterable[CubePoint],
        q: int,
        query_cap: int | None = None,
    ):
        self.target = target
        self.n = target.n
        self.q = q
        self.anchors: tuple[CubePoint, ...] = tuple(anchors)
        for a in self.anchors:
            if a.n != self.n:
                raise DimensionMismatch(f"anchor dimension {a.n} differs from target {self.n}")
        self._index = AnchorIndex((a.mask for a in self.anchors), self.n, q)
        if query_cap is None:
            query_cap = QUERY_BUDGET_FACTOR * self.n * max(1, len(self.anchors))
        if query_cap < 0:
            raise ValueError(f"query budget must be non-negative, got {query_cap}")
        self.query_cap = query_cap
        # One [answer, distance, times] entry per distinct query mask, in order of first asking.
        self._asked: dict[int, list[int]] = {}
        self._count = 0

    @classmethod
    def for_samples(
        cls,
        target: Concept,
        q: int,
        *samples: LabeledSample,
        query_cap: int | None = None,
    ) -> "LocalMQOracle":
        """Oracle whose anchors are all points of the given training samples."""
        anchors = [x for s in samples for x, _ in s]
        return cls(target, anchors, q, query_cap=query_cap)

    def records(self) -> list[tuple[QueryRecord, int]]:
        """Each distinct query once, in order of first asking, with the times it was asked."""
        return [
            (QueryRecord(CubePoint(self.n, mask), answer, distance), times)
            for mask, (answer, distance, times) in self._asked.items()
        ]

    @property
    def log(self) -> tuple[QueryRecord, ...]:
        """Every query asked, repeats included, grouped by first asking."""
        return tuple(rec for rec, times in self.records() for _ in range(times))

    def query(self, z: CubePoint) -> int:
        if z.n != self.n:
            raise DimensionMismatch(f"query dimension {z.n} differs from oracle {self.n}")
        return self.ask(z.mask)

    def ask(self, mask: int, times: int = 1) -> int:
        """Answer the query at ``mask``, counted ``times`` times against the budget.

        Locality is checked and the target evaluated on a mask's first asking
        only. A batch that does not fit the budget is refused whole.
        """
        if times < 1:
            raise ValueError(f"a query is asked at least once, got times={times}")
        entry = self._asked.get(mask)
        if entry is None:
            if not 0 <= mask < 1 << self.n:
                raise DimensionMismatch(f"query mask {mask} out of range for dimension {self.n}")
            distance = self._index.nearest(mask)
            if distance is None:
                raise LocalityViolation(self._index.min_distance(mask), self.q)
        if self._count + times > self.query_cap:
            raise BudgetExhausted(self.query_cap)
        if entry is None:
            entry = self._asked[mask] = [self.target.label(mask), distance, 0]
        entry[2] += times
        self._count += times
        return entry[0]

    def stats(self) -> OracleStats:
        histogram: dict[int, int] = {}
        for _, distance, times in self._asked.values():
            histogram[distance] = histogram.get(distance, 0) + times
        max_used = max(histogram) if histogram else 0
        return OracleStats(self._count, max_used, histogram)

    def log_jsonl(self) -> str:
        lines = [
            json.dumps({"query": rec.point.to_string(), "answer": rec.answer, "dist": rec.distance})
            for rec in self.log
        ]
        return "\n".join(lines)


def draw_training_set(dist: Distribution, h_star: Concept, m: int, seed: int) -> LabeledSample:
    """m i.i.d. points labeled by the target concept; repeated draws share one labelled pair."""
    if h_star.n != dist.n:
        raise DimensionMismatch(f"concept dimension {h_star.n} differs from distribution {dist.n}")
    masks = sample(dist, m, seed)
    labelled = {mask: (CubePoint(dist.n, mask), h_star.label(mask)) for mask in dict.fromkeys(masks)}
    return LabeledSample(tuple(map(labelled.__getitem__, masks)))
