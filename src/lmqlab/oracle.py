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

``ask_flips_many(counts)`` asks many centres' n one-flip neighbours at once and returns each centre's answers as
one int in ``flip_labels`` form. Around anchors with q >= 1 every neighbour is 1-local, so a map whose centres are
all anchors and whose queries fit the budget is checked once, scans no anchor, and is stored as one batch record:
its centres and their times, and the sum over its centres of times times the centre's flips that are anchors (at
distance 0; the rest are at 1). Those come from n set intersections, none when every anchor has one popcount parity
(one anchor, or a corpus class), as a flip changes parity and so is no anchor; the parity test is made once, by
``_setup``. ``ask_flips(mask, times)`` is its one-centre case, and a centre asked again is simply in another record.
The answers come from one memo per oracle, ``flip_labels`` keyed by ``x & target.reads``: a concept's label reads
only ``reads`` (``label(m) == label(m & reads)``), so the flip answers of x and of ``x & reads`` are equal, and a
trial over a target reading r coordinates evaluates at most 2^r centres. A map it cannot prove is the ``ask_flips``
loop. ``ask(mask, times)`` is the reference and refusal path, which no benchmark workload reaches: ``query``, and a
batch its centre cannot prove (q = 0, a centre that is not an anchor, a budget too small for the batch), ask each
point through it. It answers each distinct query once and counts its repeats; a mask's first asking scans for the
nearest anchor, whose distance is both the recorded one and a refusal's ``min_distance``. ``entries()`` and ``log``
expand the queries and the batch records on demand, in order of asking, each distinct mask once, by first asking,
and ``stats()`` sums them into a histogram in ascending distance, inserting no zero count and sorting only a
histogram of more than one distance.

``draw_training_set`` reads each generator word once per sample. A sample drawn by index stops drawing at the first
block that has drawn every support point, and draws the rest on the first read of its labels or masks, so a sample
read only through ``cover`` and ``len`` (s2 in a learning trial) never draws past its covering block. When a support
point has no label, it draws the rest at once and labels the index draws' own masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
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
        # A flip changes popcount parity, so anchors of one parity (one anchor, a corpus class) hold no anchor flip.
        parity = next(iter(anchors), 0).bit_count() & 1
        self._mixed = len(anchors) > 1 and any(a.bit_count() & 1 != parity for a in anchors)
        # The record, in order of asking, which stats() sums: _asked keys each query's mask to [answer, distance,
        # times]; _flips holds each proven flip batch as (queries asked before it, {centre: times}, its anchor
        # flips weighted by times), the centres' answers in _memo, flip_labels keyed by centre & target.reads.
        self._asked: dict[int, list[int]] = {}
        self._flips: list[tuple[int, dict[int, int], int]] = []
        self._memo: dict[int, int] = {}
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

        The queries and the batch records are merged in order of asking. A batch expands centre by centre,
        coordinate 1 first, each centre's answers read from the memo; a mask asked again, in any query or batch,
        adds its times to its first row.
        """
        rows: dict[int, list[int]] = {}
        n, anchors, memo, reads = self.n, self._anchors, self._memo, self.target.reads
        queries, done = iter(self._asked.items()), 0
        for at, counts, _ in [*self._flips, (len(self._asked), {}, 0)]:  # the last queries follow every batch
            for mask, (answer, distance, times) in islice(queries, at - done):
                rows.setdefault(mask, [answer, distance, 0])[2] += times
            done = at
            for x, times in counts.items():
                bits = memo[x & reads]
                for i in range(n - 1, -1, -1):
                    z = x ^ 1 << i
                    rows.setdefault(z, [bits >> i & 1, 0 if z in anchors else 1, 0])[2] += times
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
        so a batch that fits the budget scans no anchor: it is the one-centre
        batch of ``ask_flips_many``, one record answered from the memo.
        """
        n = self.n
        # ``ask``'s rule for the mask: True or 1.0 would pass as an anchor mask below
        if not (type(times) is int and times >= 1 and type(mask) is int and 0 <= mask < 1 << n):
            require_count(times, 1, "a query is asked a whole number of times, at least once")
            require_masks("query mask", (mask,), n)
        if self.q < 1 or mask not in self._anchors or self._count + n * times > self.query_cap:
            return sum(self.ask(mask ^ 1 << i, times) << i for i in range(n - 1, -1, -1))
        return self._record({mask: times}, times)[0]

    def ask_flips_many(self, counts: Mapping[int, int]) -> list[int]:
        """``ask_flips(x, times)`` for each (x, times) of ``counts``, in order, as one batch.

        A batch whose masks are in range, whose times are at least 1, whose
        centres are all anchors (with q >= 1) and whose n * sum(times) fits the
        budget is checked once and stored as one record (``_record``). Any
        other batch is exactly the loop of ``ask_flips``, with its partial
        record and its error at the same centre.
        """
        n = self.n
        if not (
            self.q >= 1
            and first_bad_int(counts.keys(), 0, (1 << n) - 1) is None
            and first_bad_int(counts.values(), 1, self.query_cap) is None
            and self._anchors.issuperset(counts)
            and self._count + n * (total := sum(counts.values())) <= self.query_cap
        ):
            return [self.ask_flips(x, times) for x, times in counts.items()]
        return self._record(dict(counts), total)

    def _record(self, counts: dict[int, int], total: int) -> list[int]:
        """Record a proven batch of centre -> times, with ``total`` its sum, and return the centres' answers.

        Each answer is ``flip_labels`` memoised by ``x & target.reads``: ``label(m) == label(m & reads)`` makes
        the flip answers of x and of ``x & reads`` equal, so a centre is evaluated only if no centre with its
        read pattern was. The centres' flips that are anchors (at distance 0) are ``_anchor_flips``, none if
        every anchor has one popcount parity. A target that raises at centre k leaves centres 0..k-1 recorded
        and counted, as asking the centres one by one would, and its error propagates.
        """
        memo, label, reads = self._memo, self.target.flip_labels, self.target.reads
        answers: list[int] = []
        try:
            for x in counts:
                bits = memo.get(x & reads)
                if bits is None:
                    bits = memo[x & reads] = label(x)
                answers.append(bits)
        except BaseException:  # the target raised at the centre after the answered ones
            counts = dict(islice(counts.items(), len(answers)))
            total = sum(counts.values())
            raise
        finally:
            if counts:  # a raise at the first centre records nothing
                near = _anchor_flips(self._anchors, counts, self.n) if self._mixed else 0
                self._flips.append((len(self._asked), counts, near))
                self._count += self.n * total
        return answers

    def stats(self) -> OracleStats:
        """Counts so far, summed from the record in one pass: a new histogram in ascending distance, no zero counts.

        The batch records add up to two sums, added after the pass: their flips, n times their times, and their
        anchor flips, at distance 0, the rest at 1. A zero count is never inserted, and only a histogram of more
        than one distance is sorted, so a corpus oracle, whose queries are all at distance 1, pays for neither."""
        histogram: dict[int, int] = {}
        for _, distance, times in self._asked.values():
            histogram[distance] = histogram.get(distance, 0) + times
        flips = near = 0
        for _, counts, anchor_flips in self._flips:
            flips, near = flips + sum(counts.values()), near + anchor_flips
        flips *= self.n
        if near:
            histogram[0] = histogram.get(0, 0) + near
        if flips > near:
            histogram[1] = histogram.get(1, 0) + flips - near
        if len(histogram) > 1:
            histogram = dict(sorted(histogram.items()))
        return OracleStats(self._count, max(histogram, default=0), histogram)


def _anchor_flips(anchors: frozenset[int], counts: dict[int, int], n: int) -> int:
    """The sum over the centres of ``counts`` of times times the centre's one-flip neighbours in ``anchors``.

    One set intersection per coordinate; XOR with a fixed bit is injective, so each hit names one centre.
    """
    bits = [1 << i for i in range(n)]
    return sum(counts[z ^ bit] for bit in bits for z in anchors.intersection([x ^ bit for x in counts]))


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
