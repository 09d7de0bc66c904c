"""Example oracle and the locality-enforcing membership-query oracle.

A query for point z is q-local when some anchor (a distinct training point) lies within Hamming distance q of z. The
oracle refuses anything farther away and records every answer it gives, so learners can be audited after a run.
Anchors are kept as int masks. There are three constructors: ``__init__`` takes ``CubePoint`` anchors,
``from_masks`` takes int masks and refuses any that is not an int in [0, 2^n), and ``for_samples`` reads the masks
of the samples' ``cover`` unchecked, as ``LabeledSample`` keeps them in range. All three call ``_setup``. A misfit
is refused by the cube's rules: an anchor, sample or query point of another dimension by ``cube.require_dimension``,
a mask out of range by ``cube.require_masks``, which ``from_masks``, ``ask`` and ``ask_flips`` call only once their
own inline test has failed. Counts follow the same rule: ``_setup`` tests q and the query cap in one inline test,
and ``ask`` and ``ask_flips`` test times with the mask in one, so ``cube.require_count`` is called only to raise and
a corpus oracle (one per parity class of a formula's evident points) pays for each check once.

``ask_flips(mask, times)`` asks the n one-flip neighbours of a point as one batch and returns their answers as one
int in ``flip_labels`` form: around an anchor with q >= 1 every neighbour is 1-local, so no anchor is scanned, one
``flip_labels`` call answers them all, and the batch is stored whole. ``ask_flips_many(counts)`` asks many centres'
flips at once, checking the whole map once, and is the one caller of ``ask_flips`` in the package: a map it cannot
prove is the ``ask_flips`` loop. Its anchor flips come from n set intersections, none when every anchor has one
popcount parity (one anchor, or a corpus class), as a flip changes parity and so is no anchor. ``ask(mask, times)``
is the reference and refusal path, which no benchmark workload reaches: ``query``, and a batch its centre cannot
prove (q = 0, a centre that is not an anchor, a budget too small for the batch), ask each point through it. It
answers each distinct query once and counts its repeats; a mask's first asking scans for the nearest anchor, whose
distance is both the recorded one and a refusal's ``min_distance``. Answers are kept in one record: ``entries()`` and
``log`` expand it on demand, each distinct mask once, by first asking, and ``stats()`` sums it into a histogram in
ascending distance, inserting no zero count and sorting only a histogram of more than one distance.

``draw_training_set`` reads each generator word once per sample. A sample drawn by index stops drawing at the first
block that has drawn every support point, and draws the rest on the first read of its labels or masks, so a sample
read only through ``cover`` and ``len`` (s2 in a learning trial) never draws past its covering block. When a support
point has no label, it draws the rest at once and labels the index draws' own masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

from .concepts import Concept
from .cube import CubePoint, first_bad_int, require_count, require_dimension, require_masks
from .distributions import Distribution, LabeledSample, label_masks, sample, sample_indices

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
        anchors = tuple(anchors)
        for a in anchors:
            if not isinstance(a, CubePoint):
                raise ValueError(f"anchor {a!r} is not a CubePoint")
            require_dimension("anchor", a.n, target.n)
        self._setup(target, frozenset(a.mask for a in anchors), q, query_cap, len(anchors))

    @classmethod
    def from_masks(cls, target: Concept, anchors: Iterable[int], q: int) -> LocalMQOracle:
        """Oracle anchored at int masks, with ``__init__``'s default cap; a mask ``is_int`` refuses is one error."""
        anchors = tuple(anchors)
        if first_bad_int(anchors, 0, (1 << target.n) - 1) is not None:  # hot path: at most two per corpus formula
            require_masks("anchor mask", anchors, target.n)
        oracle = cls.__new__(cls)
        oracle._setup(target, frozenset(anchors), q, None, len(anchors))
        return oracle

    def _setup(self, target: Concept, anchors: frozenset[int], q: int, query_cap: int | None, count: int) -> None:
        """The one initialiser: anchor masks in range; the cap defaults to 64 * n * max(1, anchors or draws given).

        q and the cap are tested inline, ``type(v) is int and v >= 0``, and ``require_count`` is called only to
        raise, q's refusal first."""
        if query_cap is None:
            query_cap = QUERY_BUDGET_FACTOR * target.n * max(1, count)
        if not (type(q) is int and q >= 0 and type(query_cap) is int and query_cap >= 0):
            require_count(q, 0, "locality budget must be non-negative")
            require_count(query_cap, 0, "query budget must be a non-negative integer")
        self.target, self.n, self.q, self.query_cap = target, target.n, q, query_cap
        self._anchors = anchors
        # The one record, in order of first asking; stats() sums it. A query's mask keys [answer, distance,
        # times]; a batch around an anchor keys ~centre (negative, never a mask) with [bits, times, anchor flips].
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
        """Oracle anchored at the distinct masks of the samples' ``cover``; the default cap counts every draw.

        ``LabeledSample`` keeps every mask in range, so no ``CubePoint`` is built
        and ``__init__`` is not called.
        """
        for s in samples:
            require_dimension("sample", s.n, target.n)
        anchors = frozenset(chain.from_iterable(s.cover[0] for s in samples))
        oracle = cls.__new__(cls)
        oracle._setup(target, anchors, q, query_cap, sum(map(len, samples)))
        return oracle

    def entries(self) -> list[tuple[int, int, int, int]]:
        """Each distinct query once, in order of first asking, as (mask, answer, distance, times).

        Batches expand coordinate 1 first; a mask asked again adds its times to its first row.
        """
        rows: dict[int, list[int]] = {}
        anchors = self._anchors
        for key, record in self._asked.items():
            if key >= 0:
                expanded = [(key, *record)]
            else:
                centre, bits, times = ~key, record[0], record[1]
                flips = [(centre ^ 1 << i, bits >> i & 1) for i in range(self.n - 1, -1, -1)]
                expanded = [(z, answer, 0 if z in anchors else 1, times) for z, answer in flips]
            for mask, answer, distance, times in expanded:
                rows.setdefault(mask, [answer, distance, 0])[2] += times
        return [(mask, *row) for mask, row in rows.items()]

    @property
    def log(self) -> tuple[QueryRecord, ...]:
        """Every query asked, repeats included, grouped by first asking."""
        log: list[QueryRecord] = []
        for mask, answer, distance, times in self.entries():
            log += [QueryRecord(CubePoint(self.n, mask), answer, distance)] * times
        return tuple(log)

    def query(self, z: CubePoint) -> int:
        require_dimension("query", z.n, self.n)
        return self.ask(z.mask)

    def ask(self, mask: int, times: int = 1) -> int:
        """Answer the query at ``mask``, counted ``times`` times against the budget.

        A first asking scans for the nearest anchor and evaluates the target.
        A count that does not fit the budget is refused whole.
        """
        if not (type(times) is int and times >= 1 and type(mask) is int and 0 <= mask < 1 << self.n):
            require_count(times, 1, "a query is asked a whole number of times, at least once")
            require_masks("query mask", (mask,), self.n)
        entry = self._asked.get(mask)
        if entry is None:
            distance = min(((mask ^ a).bit_count() for a in self._anchors), default=None)
            if distance is None or distance > self.q:
                raise LocalityViolation(distance, self.q)
        if self._count + times > self.query_cap:
            raise BudgetExhausted(self.query_cap)
        if entry is None:
            entry = self._asked[mask] = [self.target.label(mask), distance, 0]
        entry[2] += times
        self._count += times
        return entry[0]

    def ask_flips(self, mask: int, times: int = 1) -> int:
        """Answers at the n one-flip neighbours of ``mask``: bit i answers ``mask ^ (1 << i)``.

        Answers, entries, statistics and errors are those of ``ask`` on each
        neighbour in turn, coordinate 1 first. An anchor centre with q >= 1
        proves every neighbour 1-local (distance 0 if an anchor itself, else 1),
        so a batch that fits the budget scans no anchor and is recorded as one batch.
        """
        n, anchors = self.n, self._anchors
        # ``ask``'s rule for the mask: True or 1.0 would pass as an anchor mask below
        if not (type(times) is int and times >= 1 and type(mask) is int and 0 <= mask < 1 << n):
            require_count(times, 1, "a query is asked a whole number of times, at least once")
            require_masks("query mask", (mask,), n)
        if self.q < 1 or mask not in anchors or self._count + n * times > self.query_cap:
            return sum(self.ask(mask ^ 1 << i, times) << i for i in range(n - 1, -1, -1))
        batch = self._asked.get(~mask)
        if batch is None:
            near = len(anchors.intersection([mask ^ 1 << i for i in range(n)]))
            batch = self._asked[~mask] = [self.target.flip_labels(mask), 0, near]
        batch[1] += times
        self._count += n * times
        return batch[0]

    def ask_flips_many(self, counts: Mapping[int, int]) -> list[int]:
        """``ask_flips(x, times)`` for each (x, times) of ``counts``, in order, as one batch.

        A batch whose masks are in range, whose times are at least 1, whose
        centres are all anchors (with q >= 1) and whose n * sum(times) fits the
        budget is checked once and answered without a per-centre call: the
        flips of the new centres that are anchors come from n set
        intersections, one per coordinate (XOR with a fixed bit is injective,
        so each hit names one centre), or none if every anchor has one popcount
        parity. Any other batch is exactly the loop of ``ask_flips``, with its
        partial record and its error at the same centre.
        """
        n, anchors = self.n, self._anchors
        if not (
            self.q >= 1
            and first_bad_int(counts.keys(), 0, (1 << n) - 1) is None
            and first_bad_int(counts.values(), 1, self.query_cap) is None
            and anchors.issuperset(counts)
            and self._count + n * sum(counts.values()) <= self.query_cap
        ):
            return [self.ask_flips(x, times) for x, times in counts.items()]
        asked, label = self._asked, self.target.flip_labels
        new = [x for x in counts if ~x not in asked]
        near = dict.fromkeys(new, 0)
        # A flip changes popcount parity, so anchors of one parity (one anchor, a corpus class) hold no anchor flip.
        parity = next(iter(anchors), 0).bit_count() & 1
        for i in range(n if any(a.bit_count() & 1 != parity for a in anchors) else 0):
            bit = 1 << i
            for z in anchors.intersection([x ^ bit for x in new]):
                near[z ^ bit] += 1
        answers = []
        for x, times in counts.items():  # counted as recorded: a target that raises stops here as the loop would
            batch = asked.get(~x)
            if batch is None:
                batch = asked[~x] = [label(x), 0, near[x]]
            batch[1] += times
            self._count += n * times
            answers.append(batch[0])
        return answers

    def stats(self) -> OracleStats:
        """Counts so far, summed from the record in one pass: a new histogram in ascending distance, no zero counts.

        The batches add up to two sums, added after the pass. A zero count is never inserted, and only a histogram
        of more than one distance is sorted, so a corpus oracle, whose queries are all at distance 1, pays for
        neither."""
        histogram: dict[int, int] = {}
        times = near = 0  # summed over the batches, [bits, times, anchor flips]: anchor flips at 0, the rest at 1
        for key, (_, middle, last) in self._asked.items():
            if key >= 0:  # a query: [answer, distance, times]
                histogram[middle] = histogram.get(middle, 0) + last
            else:
                times, near = times + middle, near + last * middle
        if near:
            histogram[0] = histogram.get(0, 0) + near
        if self.n * times > near:
            histogram[1] = histogram.get(1, 0) + self.n * times - near
        if len(histogram) > 1:
            histogram = dict(sorted(histogram.items()))
        return OracleStats(self._count, max(histogram, default=0), histogram)


def draw_training_set(dist: Distribution, h_star: Concept, m: int, seed: int) -> LabeledSample:
    """m i.i.d. points labeled by the target concept, as ``sample`` draws and ``label`` labels them.

    A distribution drawn by point index (``sample_indices``) has its support labelled once by ``label_masks``; its
    draws may stop at the first block that has drawn every point, the rest drawn on the first read of the labels or
    masks. If a support point has no label (a ``PolyConcept`` off ±1, a table without the point), the rest is drawn
    at once and the index draws' masks, which are ``sample``'s, are labelled instead, so an error names the first
    draw without one; a distribution not drawn by index has ``sample``'s draws labelled. Either way each generator
    word is read once.
    """
    require_dimension("concept", h_star.n, dist.n)
    if (indexed := sample_indices(dist, m, seed)) is not None:
        points, idx, rest = indexed
        try:
            return LabeledSample._by_index(dist.n, m, *indexed, label_masks(h_star, points))
        except (ValueError, LookupError):
            idx += rest() if rest else b""  # a support point has no label: every draw is labelled below
    masks = tuple(sample(dist, m, seed) if indexed is None else map(points.__getitem__, idx))
    return LabeledSample._drawn(dist.n, masks, label_masks(h_star, masks))
