"""Example oracle and the locality-enforcing membership-query oracle.

A query for point z is q-local when some anchor (a distinct training point)
lies within Hamming distance q of z. The oracle refuses anything farther away
and logs every answer it gives, so learners can be audited after a run.
The core, ``ask(mask, times)``, checks and answers each distinct query once
and counts its repeats; ``log`` expands the counts, grouped by first asking.
``ask_flips(mask, times)`` asks the n one-flip neighbours of a point as one
batch: around an anchor with q >= 1 every neighbour is 1-local by
construction, so no ball is walked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .concepts import Concept
from .cube import AnchorIndex, CubePoint, DimensionMismatch
from .distributions import Distribution, LabeledSample, sample

QUERY_BUDGET_FACTOR = 64


def _require_count(value: object, least: int, what: str) -> None:
    """Refuse a count below ``least`` or one that is not an int (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{what}, got {value!r}")


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
        anchors = tuple(anchors)
        for a in anchors:
            if a.n != self.n:
                raise DimensionMismatch(f"anchor dimension {a.n} differs from target {self.n}")
        self._index = AnchorIndex((a.mask for a in anchors), self.n, q)
        if query_cap is None:
            query_cap = QUERY_BUDGET_FACTOR * self.n * max(1, len(anchors))
        _require_count(query_cap, 0, "query budget must be a non-negative integer")
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
        """Oracle anchored at the samples' distinct points; the default cap counts every draw."""
        for s in samples:
            if s.n != target.n:
                raise DimensionMismatch(f"sample dimension {s.n} differs from target {target.n}")
        if query_cap is None:
            query_cap = QUERY_BUDGET_FACTOR * target.n * max(1, sum(map(len, samples)))
        distinct = dict.fromkeys(chain.from_iterable(s.masks for s in samples))
        return cls(target, [CubePoint(target.n, m) for m in distinct], q, query_cap=query_cap)

    def entries(self) -> list[tuple[int, int, int, int]]:
        """Each distinct query once, in order of first asking, as (mask, answer, distance, times)."""
        return [(mask, *entry) for mask, entry in self._asked.items()]

    def records(self) -> list[tuple[QueryRecord, int]]:
        """Each distinct query once, in order of first asking, with the times it was asked."""
        return [
            (QueryRecord(CubePoint(self.n, mask), answer, distance), times)
            for mask, answer, distance, times in self.entries()
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
        _require_count(times, 1, "a query is asked a whole number of times, at least once")
        distance = None
        if mask not in self._asked:
            if not 0 <= mask < 1 << self.n:
                raise DimensionMismatch(f"query mask {mask} out of range for dimension {self.n}")
            distance = self._index.nearest(mask)
            if distance is None:
                raise LocalityViolation(self._index.min_distance(mask), self.q)
        if self._count + times > self.query_cap:
            raise BudgetExhausted(self.query_cap)
        return self._record((mask,), (distance,), times)[0]

    def ask_flips(self, mask: int, times: int = 1) -> list[int]:
        """Answers at the n one-flip neighbours of ``mask``, coordinate 1 first.

        Answers, records, statistics and errors are those of ``ask`` on each
        neighbour in turn. An anchor centre with q >= 1 proves every neighbour
        1-local (distance 0 if an anchor itself, else 1), so a batch that fits
        the budget walks no ball.
        """
        _require_count(times, 1, "a query is asked a whole number of times, at least once")
        flips = [mask ^ (1 << i) for i in range(self.n - 1, -1, -1)]
        anchors = self._index.masks
        if self.q < 1 or mask not in anchors or self._count + self.n * times > self.query_cap:
            return [self.ask(z, times) for z in flips]
        return self._record(flips, [0 if z in anchors else 1 for z in flips], times)

    def _record(self, masks: Sequence[int], distances: Sequence[int | None], times: int) -> list[int]:
        """Answer masks already checked local and within budget, charging each ``times``."""
        asked, label = self._asked, self.target.label
        answers = []
        for mask, distance in zip(masks, distances):
            entry = asked.get(mask)
            if entry is None:
                entry = asked[mask] = [label(mask), distance, 0]
            entry[2] += times
            answers.append(entry[0])
        self._count += len(masks) * times
        return answers

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
    """m i.i.d. points labeled by the target concept, each distinct point labelled once."""
    if h_star.n != dist.n:
        raise DimensionMismatch(f"concept dimension {h_star.n} differs from distribution {dist.n}")
    masks = sample(dist, m, seed)
    labels = {mask: h_star.label(mask) for mask in dict.fromkeys(masks)}
    return LabeledSample(dist.n, tuple(masks), tuple(map(labels.__getitem__, masks)))
