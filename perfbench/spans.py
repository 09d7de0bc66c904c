"""Item clock, in-memory spans, and the wrappers that feed them.

Nothing under src/ is edited. For the duration of one verdict the wrappers
replace names in the namespaces where `lmqlab.harness` and `lmqlab.oracle`
look them up, and restore them afterwards. Untraced runs replace only the
names that mark item boundaries; traced runs also time every call into a
layer and count its work.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import lmqlab.harness as harness
import lmqlab.oracle as oracle

from reference import reference_loop

# The reference loop is sampled on a wall-clock timer this often while a
# verdict runs: well inside the ~100 ms over which the host's speed swings,
# so the samples' mean follows the speed the workload saw, at 3-5% of run
# time.
REF_INTERVAL_S = 0.01
# An item is normalised by the samples taken while it ran and this long
# around it, so that items shorter than the interval still get several.
REF_WINDOW_S = 0.05

# Construction names of the shipped reductions; any other verified reduction
# is one of the harness's deliberately broken negative controls.
SHIPPED_REDUCTIONS = frozenset({"dnf", "dfa", "junta", "tree", "poly", "ptf"})


class ItemClock:
    """Splits verdicts into items and times them in reference-loop units.

    An item is one trial, formula or verify/simulate call. Time between
    items (suite bookkeeping) is a gap: it counts toward its verdict but is
    not an item. While a verdict runs, a SIGALRM timer interrupts it every
    REF_INTERVAL_S to time one reference loop; that time is left out of
    every period and span (`now` is work time). A verdict is divided by the
    mean of all its samples. An item is divided by the mean of the samples
    taken while it ran, widened by REF_WINDOW_S on each side, because the
    host's speed swings within a verdict; summing such item ratios would
    bias a verdict upwards where few samples fall in a window.
    """

    def __init__(self) -> None:
        self.items: list[float] = []
        self.refs: list[float] = []
        self.verdict_norms: list[float] = []
        self.verdict_seconds: list[float] = []
        self.verdict_items: list[int] = []
        self.paused = 0.0
        self._sampling = False
        self._sample_at: list[float] = []
        self._samples: list[float] = []
        self._periods: list[tuple[float, float, bool]] = []
        self._period_items = 0
        self._open: tuple[float, bool] | None = None

    def now(self) -> float:
        """Wall time minus the time spent in reference samples."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:
                return t - paused

    @property
    def item_id(self) -> int:
        """Index of the open item, or of the next one during a gap."""
        return len(self.items) + self._period_items

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        # The loop's garbage is freed by reference counting; with the
        # collector off it neither collects the workload's heap nor shifts
        # when the workload's own collections happen.
        collecting = gc.isenabled()
        gc.disable()
        t1 = time.perf_counter()
        reference_loop()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self._sample_at.append(t0 - self.paused)
        self._samples.append(t2 - t1)
        self.paused += time.perf_counter() - t0
        self._sampling = False

    def _close(self) -> None:
        now = self.now()
        if self._open is not None:
            self._periods.append((self._open[0], now, self._open[1]))
            self._period_items += self._open[1]
            self._open = None

    def _begin(self, is_item: bool) -> None:
        self._open = (self.now(), is_item)

    def start_verdict(self) -> None:
        # Every verdict starts from a collected heap, as in a fresh process,
        # so its garbage-collection work depends on its own allocations only.
        gc.collect()
        self._sample_at, self._samples, self._periods = [], [], []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        self._begin(False)

    def mark(self) -> None:
        """An item starts here; whatever was open ends."""
        self._close()
        self._begin(True)

    def end_item(self) -> None:
        """The open item ends; a gap starts."""
        self._close()
        self._begin(False)

    def end_verdict(self) -> None:
        self._close()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self._samples:
            self._on_alarm(signal.SIGALRM, None)
        verdict_ref = statistics.fmean(self._samples)
        seconds = 0.0
        items = 0
        for start, end, is_item in self._periods:
            seconds += end - start
            if is_item:
                lo = bisect.bisect_left(self._sample_at, start - REF_WINDOW_S)
                hi = bisect.bisect_right(self._sample_at, end + REF_WINDOW_S)
                ref = statistics.fmean(self._samples[lo:hi]) if hi > lo else verdict_ref
                self.items.append((end - start) / ref)
                items += 1
        self.refs.extend(self._samples)
        self.verdict_norms.append(seconds / verdict_ref)
        self.verdict_seconds.append(seconds)
        self.verdict_items.append(items)
        self._periods = []
        self._period_items = 0


class Span:
    """All calls of one name under one parent span within one item."""

    __slots__ = ("id", "name", "parent", "item", "start", "end", "calls", "total", "child")

    def __init__(self, id: int, name: str, parent: int, item: int, start: float):
        self.id, self.name, self.parent, self.item = id, name, parent, item
        self.start = self.end = start
        self.calls = 0
        self.total = self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "item": self.item,
            "start": self.start - origin, "end": self.end - origin, "calls": self.calls,
            "seconds": self.total, "self_seconds": self.self_time,
        }


class Tracer:
    """Spans kept in memory, named `<module>.<what>`.

    Calls of one name under one parent within one item share a span, which
    bounds memory for hot calls such as oracle queries. A call made directly
    inside a span of the same name joins it. Self time is span time minus
    the time of its child spans; spans named `bench.*` are the benchmark's
    own counting and belong to no lmqlab layer. Times are the item clock's
    work time, so reference samples fall in no span.
    """

    def __init__(self, clock: ItemClock) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._index: dict[tuple[int, str, int], Span] = {}
        self._stack: list[Span] = []

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            return fn(*args, **kwargs)
        key = (parent.id if parent is not None else -1, name, self.clock.item_id)
        now = self.clock.now
        t0 = now()
        span = self._index.get(key)
        if span is None:
            span = Span(len(self.spans), name, key[0], key[2], t0)
            self._index[key] = span
            self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = now()
            stack.pop()
            span.calls += 1
            span.total += t1 - t0
            span.end = t1
            if parent is not None:
                parent.child += t1 - t0

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def seconds(self, name: str) -> float:
        return sum(s.total for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(s.calls for s in self.spans if s.name == name)

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name.split(".", 1)[0]] += s.self_time
        return out


def _untimed(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Instrument:
    """What one verdict pass is observed with: an item clock, maybe a tracer."""

    def __init__(self, clock: ItemClock, tracer: Tracer | None = None, formula_items: bool = False):
        self.clock = clock
        self.tracer = tracer
        # The corpus's formulas are its items; elsewhere (the reduction
        # matrix) a random DNF is only part of an instance.
        self.formula_items = formula_items
        self.call = tracer.call if tracer is not None else _untimed

    def count(self, name: str, k: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, k)

    def family(self, make):
        """Wrap a learning family: each instance drawn starts a trial."""

        def instance(seed):
            self.clock.mark()
            return self.call("harness.instance", make, seed)

        return instance

    @contextmanager
    def installed(self):
        saved = {}
        replacements = self._item_names()
        if self.tracer is not None:
            replacements.update(self._traced_names(self.tracer))
        try:
            for (module, name), value in replacements.items():
                saved[(module, name)] = getattr(module, name)
                setattr(module, name, value)
            yield
        finally:
            for (module, name), value in saved.items():
                setattr(module, name, value)

    def _item_names(self) -> dict:
        clock, call = self.clock, self.call
        random_dnf = harness.random_dnf
        verify = harness.verify_reduction
        simulate = harness.simulate_pac_from_local

        def formula(*args, **kwargs):
            if self.formula_items:
                clock.mark()
            return call("harness.instance", random_dnf, *args, **kwargs)

        def verify_item(reduction, concept, *args, **kwargs):
            # A negative control checks the verifier, not a construction:
            # its time counts toward the verdict but it is no item.
            if reduction.name not in SHIPPED_REDUCTIONS:
                return self._verify(verify, reduction, concept, *args, **kwargs)
            clock.mark()
            try:
                return self._verify(verify, reduction, concept, *args, **kwargs)
            finally:
                clock.end_item()

        def simulate_item(*args, **kwargs):
            clock.mark()
            try:
                result = call("reductions.simulate", simulate, *args, **kwargs)
                if self.tracer is not None:
                    self.tracer.count("reductions.synth_answers", len(result[1].log))
                return result
            finally:
                clock.end_item()

        return {
            (harness, "random_dnf"): formula,
            (harness, "verify_reduction"): verify_item,
            (harness, "simulate_pac_from_local"): simulate_item,
        }

    def _verify(self, verify, reduction, concept, *args, **kwargs):
        shipped = reduction.name in SHIPPED_REDUCTIONS
        name = f"reductions.verify_{reduction.kind}" if shipped else "reductions.control"
        report = self.call(name, verify, reduction, concept, *args, **kwargs)
        if self.tracer is not None and shipped:
            t = self.tracer
            t.count(f"reductions.ball_points_{report.kind}", report.ball_checked)
            t.count("reductions.image_points", report.image_checked)
            t.count("reductions.flip_radius", report.flip_radius)
            t.count("reductions.q", report.q)
            if report.kind == "B":
                t.count("reductions.anchor_scans_B", report.ball_checked * (1 << report.source_n))
        return report

    def _traced_names(self, t: Tracer) -> dict:
        draw = harness.draw_training_set
        sample = oracle.sample
        learn_run = harness.learn_evident_dnf_run
        learn = harness.learn_evident_dnf
        exact_loss, mc_loss = harness.exact_loss, harness.mc_loss
        reconstruct = harness.reconstruct_term
        reveal = harness.flips_reveal_term
        evidently = harness.satisfies_evidently

        def traced_sample(dist, m, seed):
            t.count("distributions.draws", m)
            return t.call("distributions.sample", sample, dist, m, seed)

        def traced_draw(*args, **kwargs):
            return t.call("concepts.label", draw, *args, **kwargs)

        def traced_learn_run(s1, s2, oracle_):
            run = t.call("learner.learn", learn_run, s1, s2, oracle_)
            t.call("bench.count", _count_learner_run, t, run, s1, oracle_)
            return run

        def traced_learn(*args, **kwargs):
            return t.call("learner.learn", learn, *args, **kwargs)

        def traced_exact_loss(dist, *args, **kwargs):
            loss = t.call("distributions.loss", exact_loss, dist, *args, **kwargs)
            t.call("bench.count", lambda: t.count("distributions.loss_points", sum(1 for _ in dist.support())))
            return loss

        def traced_mc_loss(dist, h_star, h_hat, m, seed):
            t.count("distributions.loss_points", m)
            return t.call("distributions.loss", mc_loss, dist, h_star, h_hat, m, seed)

        def traced_reconstruct(x, oracle_):
            term = t.call("learner.reconstruct", reconstruct, x, oracle_)
            t.call("bench.count", _count_distinct_queries, t, oracle_)
            return term

        def traced_reveal(*args, **kwargs):
            return t.call("evident.reveal", reveal, *args, **kwargs)

        def traced_evidently(*args, **kwargs):
            return t.call("evident.crosscheck", evidently, *args, **kwargs)

        return {
            (harness, "draw_training_set"): traced_draw,
            (oracle, "sample"): traced_sample,
            (harness, "LocalMQOracle"): _traced_oracle_class(t),
            (harness, "learn_evident_dnf_run"): traced_learn_run,
            (harness, "learn_evident_dnf"): traced_learn,
            (harness, "exact_loss"): traced_exact_loss,
            (harness, "mc_loss"): traced_mc_loss,
            (harness, "reconstruct_term"): traced_reconstruct,
            (harness, "flips_reveal_term"): traced_reveal,
            (harness, "satisfies_evidently"): traced_evidently,
        }


def _count_learner_run(t: Tracer, run, s1, oracle_) -> None:
    t.count("learner.phase1_s", run.phase1_seconds)
    t.count("learner.phase2_s", run.phase2_seconds)
    t.count("learner.positives", run.positives_seen)
    t.count("learner.positives_distinct", len({x.mask for x, y in s1 if y == 1}))
    t.count("learner.terms_added", run.terms_added)
    t.count("learner.terms_pruned", run.terms_pruned)
    _count_distinct_queries(t, oracle_)


def _count_distinct_queries(t: Tracer, oracle_) -> None:
    t.count("oracle.queries_distinct", len({rec.point.mask for rec in oracle_.log}))


def _traced_oracle_class(t: Tracer):
    base = oracle.LocalMQOracle
    base_init, base_query = base.__init__, base.query
    base_for_samples = base.for_samples.__func__

    class TracedOracle(base):
        def __init__(self, target, anchors, q, query_cap=None):
            anchors = list(anchors)
            t.call("oracle.build", base_init, self, target, anchors, q, query_cap)
            t.call("bench.count", lambda: t.count("oracle.anchors_distinct", len({a.mask for a in anchors})))

        @classmethod
        def for_samples(cls, target, q, *samples, query_cap=None):
            return t.call("oracle.build", base_for_samples, cls, target, q, *samples, query_cap=query_cap)

        def query(self, z):
            return t.call("oracle.query", base_query, self, z)

    return TracedOracle
