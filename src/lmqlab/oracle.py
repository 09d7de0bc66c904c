"""Example oracle and the locality-enforcing membership-query oracle.

A query for point z is q-local when some anchor (training point) lies
within Hamming distance q of z. The oracle refuses anything farther away
and logs every answer it gives, so learners can be audited after a run.
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
        self.query_cap = query_cap
        self._log: list[QueryRecord] = []

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

    @property
    def log(self) -> tuple[QueryRecord, ...]:
        return tuple(self._log)

    def query(self, z: CubePoint) -> int:
        if z.n != self.n:
            raise DimensionMismatch(f"query dimension {z.n} differs from oracle {self.n}")
        distance = self._index.nearest(z.mask)
        if distance is None:
            raise LocalityViolation(self._index.min_distance(z.mask), self.q)
        if len(self._log) >= self.query_cap:
            raise BudgetExhausted(self.query_cap)
        answer = self.target.evaluate(z)
        self._log.append(QueryRecord(z, answer, distance))
        return answer

    def stats(self) -> OracleStats:
        histogram: dict[int, int] = {}
        for rec in self._log:
            histogram[rec.distance] = histogram.get(rec.distance, 0) + 1
        max_used = max(histogram) if histogram else 0
        return OracleStats(len(self._log), max_used, histogram)

    def log_jsonl(self) -> str:
        lines = [
            json.dumps({"query": rec.point.to_string(), "answer": rec.answer, "dist": rec.distance})
            for rec in self._log
        ]
        return "\n".join(lines)


def draw_training_set(dist: Distribution, h_star: Concept, m: int, seed: int) -> LabeledSample:
    """m i.i.d. points labeled by the target concept."""
    if h_star.n != dist.n:
        raise DimensionMismatch(f"concept dimension {h_star.n} differs from distribution {dist.n}")
    points = sample(dist, m, seed)
    return LabeledSample(tuple((x, h_star.evaluate(x)) for x in points))
