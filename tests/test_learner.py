import math
import random
from collections import Counter
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import event, given, settings, strategies as st

from cubes import cube_points
from lmqlab.concepts import DnfFormula, Term, random_dnf
from lmqlab.cube import CubePoint, DimensionMismatch
from lmqlab.distributions import (
    _DRAW_BLOCK,
    FiniteSupport,
    LabeledSample,
    ProductDist,
    UniformCube,
    exact_loss,
    sample_indices,
)
from lmqlab.evident import gen_opposite_literal_dnf, satisfies_evidently
from lmqlab.harness import derive_seed, doubled_tree_family, opposite_literal_family
from lmqlab import learner
from lmqlab.learner import (
    NEGATE,
    learn_evident_dnf,
    learn_evident_dnf_run,
    plan_samples,
    prune_terms,
    reconstruct_term,
)
from lmqlab.oracle import BudgetExhausted, LocalityViolation, LocalMQOracle, draw_training_set


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def S(n: int, *pairs: tuple[str, int]) -> LabeledSample:
    """A sample over n variables from (point string, label) pairs."""
    return LabeledSample(n, tuple(P(x).mask for x, _ in pairs), tuple(y for _, y in pairs))


class TestPlanner:
    def test_exact_values_small_case(self):
        plan = plan_samples(2, 0.5)
        m1 = math.ceil((32 * 8 / 0.5) * math.log(32 * 4 / 0.5))
        assert plan.m1 == m1 == 2840
        assert plan.m2 == math.ceil((32 * 2840 / 0.5) * math.log(32 * 2840 / 0.5))

    def test_monotone_in_epsilon(self):
        for n in (2, 5, 9):
            for eps in (0.5, 0.25, 0.1):
                assert plan_samples(n, eps / 2).m1 > plan_samples(n, eps).m1

    def test_term_count_variant_is_tighter(self):
        # d <= n^2 makes the generic bound an upper envelope of the d-form.
        assert plan_samples(4, 0.2, d=3).m1 <= plan_samples(4, 0.2).m1

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            plan_samples(3, 0.0)
        with pytest.raises(ValueError):
            plan_samples(3, 1.0)


class TestReconstruction:
    def test_conjunction_with_free_variable(self):
        f = DnfFormula(3, (Term.of(1, 2),))
        x = P("+++")
        o = LocalMQOracle(f, [x], q=1)
        assert reconstruct_term(x.mask, o) == Term.of(1, 2).masks(3)
        assert o.stats().query_count == 3

    def test_negative_literal_trace(self):
        f = DnfFormula(2, (Term.of(-1),))
        x = P("-+")
        o = LocalMQOracle(f, [x], q=1)
        assert reconstruct_term(x.mask, o) == Term.of(-1).masks(2)

    def test_exact_on_evident_points_of_random_instances(self):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(3, 8)
            width = rng.randint(2, min(4, n))
            d = rng.randint(1, 1 << (width - 1))
            f = gen_opposite_literal_dnf(n, d, width, seed=rng.randrange(1 << 30))
            for x in cube_points(n):
                hit = f.satisfied_indices(x.mask)
                if len(hit) == 1 and satisfies_evidently(f, hit[0], x.mask):
                    o = LocalMQOracle(f, [x], q=1)
                    assert reconstruct_term(x.mask, o) == f.terms[hit[0]].masks(n)

    @pytest.mark.parametrize("x", ["++", "++++"])
    def test_example_of_another_dimension_rejected(self, x):
        # A mask carries no dimension, so the learner checks each sample's.
        o = LocalMQOracle(DnfFormula(3, (Term.of(1),)), [P("+++")], q=3)
        with pytest.raises(DimensionMismatch):
            learn_evident_dnf_run(S(len(x), (x, 1)), S(3), o)
        with pytest.raises(DimensionMismatch):
            learn_evident_dnf_run(S(3, ("+++", 1)), S(len(x), (x, 0)), o)
        assert o.log == ()

    @pytest.mark.parametrize("mask", [-1, 8, 15, 1 << 40])
    def test_mask_out_of_range_rejected(self, mask):
        o = LocalMQOracle(DnfFormula(3, (Term.of(1),)), [P("+++")], q=3)
        with pytest.raises(DimensionMismatch, match="out of range"):
            reconstruct_term(mask, o)
        assert o.log == () and o.stats().query_count == 0

    def test_queries_are_distance_one_flips(self):
        f = DnfFormula(4, (Term.of(1),))
        x = P("+-+-")
        o = LocalMQOracle(f, [x], q=1)
        reconstruct_term(x.mask, o)
        assert [rec.point for rec in o.log] == [x.flip(j) for j in range(1, 5)]
        assert o.stats().distance_histogram == {1: 4}


class TestLearner:
    def test_end_to_end_equivalence(self):
        target = DnfFormula(4, (Term.of(1, 2), Term.of(-1, -2)))
        dist = UniformCube(4)
        s1 = draw_training_set(dist, target, 2000, seed=101)
        s2 = draw_training_set(dist, target, 10000, seed=102)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        learned = learn_evident_dnf(s1, s2, oracle)
        for x in cube_points(4):
            assert learned.evaluate(x) == target.evaluate(x)
        assert exact_loss(dist, target, learned) == 0
        # Pruning soundness: nothing in the output fires on a known negative.
        for term in learned.terms:
            for x, y in s2:
                if y == 0:
                    assert not term.satisfied_by(x)

    def test_no_positives_yields_constant_zero(self):
        target = DnfFormula(3, (Term.of(1, 2, 3),))
        s1 = S(3, ("---", 0), ("-+-", 0))
        s2 = S(3)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        learned = learn_evident_dnf(s1, s2, oracle)
        assert learned.terms == ()
        assert oracle.stats().query_count == 0

    def test_spurious_term_pruned_by_negatives(self):
        # The non-evident positive (+++) reconstructs the always-true term;
        # the negative example in the second sample removes it.
        target = DnfFormula(3, (Term.of(1), Term.of(2)))
        s1 = S(3, ("+++", 1), ("+--", 1))
        s2 = S(3, ("---", 0))
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        run = learn_evident_dnf_run(s1, s2, oracle)
        assert run.terms_added == 2
        assert run.terms_pruned == 1
        assert [t.signed() for t in run.formula.terms] == [(1,)]

    def test_query_count_is_n_times_positives(self):
        target = gen_opposite_literal_dnf(5, 2, 3, seed=8)
        dist = UniformCube(5)
        s1 = draw_training_set(dist, target, 300, seed=201)
        s2 = draw_training_set(dist, target, 300, seed=202)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        run = learn_evident_dnf_run(s1, s2, oracle)
        assert run.oracle_stats.query_count == 5 * sum(s1.labels)
        assert run.positives_seen == sum(s1.labels)

    def test_duplicate_terms_deduplicated(self):
        target = DnfFormula(3, (Term.of(1, 2),))
        s1 = S(3, *[("+++", 1)] * 4)
        s2 = S(3)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        run = learn_evident_dnf_run(s1, s2, oracle)
        assert run.terms_added == 1
        assert run.oracle_stats.query_count == 12

    def test_zero_locality_budget_rejects_first_query(self):
        target = DnfFormula(3, (Term.of(1, 2),))
        s1 = S(3, ("+++", 1))
        s2 = S(3, ("-+-", 0))
        oracle = LocalMQOracle.for_samples(target, 0, s1, s2)
        with pytest.raises(LocalityViolation):
            learn_evident_dnf(s1, s2, oracle)
        assert oracle.stats().query_count == 0

    def test_target_terms_survive_when_revealed(self):
        # Every target term has an evident representative in s1, so the
        # output contains every target term exactly.
        target = gen_opposite_literal_dnf(6, 4, 3, seed=14)
        dist = UniformCube(6)
        s1_points = []
        for x in cube_points(6):
            hit = target.satisfied_indices(x.mask)
            if len(hit) == 1 and satisfies_evidently(target, hit[0], x.mask):
                s1_points.append(x)
        s1 = LabeledSample(6, tuple(x.mask for x in s1_points), (1,) * len(s1_points))
        s2 = draw_training_set(dist, target, 3000, seed=55)
        oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
        learned = learn_evident_dnf(s1, s2, oracle)
        assert set(learned.terms) == set(target.terms)


def reference_learn(s1, s2, oracle):
    """The pointwise learner: one reconstruction per positive occurrence, through ``query``.

    Returns (terms, positives, terms added, terms pruned).
    """
    n = oracle.n
    collected = {}
    positives = 0
    for x, y in s1:
        if y != 1:
            continue
        positives += 1
        pos, neg = set(), set()
        for j in range(1, n + 1):
            if oracle.query(x.flip(j)) == 0:
                (pos if x.bit(j) == 1 else neg).add(j)
        collected.setdefault(Term(frozenset(pos), frozenset(neg)))
    negatives = [x for x, y in s2 if y == 0]
    surviving = tuple(t for t in collected if not any(t.satisfied_by(x) for x in negatives))
    return surviving, positives, len(collected), len(collected) - len(surviving)


@st.composite
def repeated_samples(draw):
    """A random DNF with a distribution whose samples repeat heavily: few points, many draws."""
    n = draw(st.integers(2, 8))
    d, width, seed = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 1 << 30))
    target = random_dnf(n, d, width, random.Random(seed))
    if draw(st.booleans()):
        dist = UniformCube(n)
    else:
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(masks), max_size=len(masks)))
        dist = FiniteSupport(n, tuple((m, Fraction(w, sum(weights))) for m, w in zip(masks, weights)))
    m1, m2 = draw(st.integers(0, 600)), draw(st.integers(0, 600))
    seeds = draw(st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30)))
    return target, dist, m1, m2, seeds


@settings(max_examples=60, deadline=None)
@given(repeated_samples(), st.integers(1, 2))
def test_learner_matches_pointwise_reference(case, q):
    target, dist, m1, m2, (seed1, seed2) = case
    s1 = draw_training_set(dist, target, m1, seed1)
    s2 = draw_training_set(dist, target, m2, seed2)
    oracle = LocalMQOracle.for_samples(target, q, s1, s2)
    run = learn_evident_dnf_run(s1, s2, oracle)
    reference = LocalMQOracle.for_samples(target, q, s1, s2)
    terms, positives, added, pruned = reference_learn(s1, s2, reference)
    assert run.formula.terms == terms
    assert (run.positives_seen, run.terms_added, run.terms_pruned) == (positives, added, pruned)
    assert run.oracle_stats == reference.stats()
    assert run.oracle_stats.query_count == target.n * positives
    assert Counter(oracle.log) == Counter(reference.log)


# Every way ``draw_training_set`` draws, and whether it draws by index (and so stores a cover of the drawn support).
COVER_PATHS = {"uniform-index": True, "uniform-wide": False, "table": True, "bisection": False, "product": False}


@st.composite
def cover_cases(draw):
    """A random DNF under a distribution of one draw path, and two samples' sizes and seeds: 0, 1, a few, or more
    than a block of draws."""
    path = draw(st.sampled_from(sorted(COVER_PATHS)))
    n = draw(st.integers(1, 8) if path == "uniform-index" else st.integers(9, 12) if path == "uniform-wide"
             else st.integers(1, 10))
    target = random_dnf(n, draw(st.integers(1, 4)), draw(st.integers(1, 4)), random.Random(draw(st.integers(0, 99))))
    if path.startswith("uniform"):
        dist = UniformCube(n)
    elif path == "product":
        dist = ProductDist(n, tuple(Fraction(draw(st.integers(0, d)), d) for d in draw(
            st.lists(st.sampled_from([2, 3, 4]), min_size=n, max_size=n))))
    else:
        least = 1 if path == "table" else 2
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=least, max_size=8, unique=True))
        if path == "table":  # masses in 256ths: every top byte of a draw names one entry
            cuts = sorted(draw(st.sets(st.integers(1, 255), min_size=len(masks) - 1, max_size=len(masks) - 1)))
            weights, total = [b - a for a, b in zip([0, *cuts], [*cuts, 256])], 256
        else:  # an odd total: the first boundary is not dyadic, so some top byte straddles it
            weights = draw(st.lists(st.integers(1, 5), min_size=len(masks), max_size=len(masks)))
            weights[-1] += 1 - sum(weights) % 2
            total = sum(weights)
        dist = FiniteSupport(n, tuple((m, Fraction(w, total)) for m, w in zip(masks, weights)))
    size = st.sampled_from([0, 1]) | st.integers(2, 200) | st.integers(_DRAW_BLOCK + 1, _DRAW_BLOCK + 64)
    sizes, seeds = draw(st.tuples(size, size)), draw(st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30)))
    return path, target, dist, sizes, seeds


@settings(max_examples=80, deadline=None)
@given(cover_cases(), st.integers(1, 2))
def test_cover_oracle_and_learner_match_the_constructor_built_twins(case, q):
    path, target, dist, sizes, seeds = case
    assert (sample_indices(dist, 0, 0) is not None) == COVER_PATHS[path]
    drawn = [draw_training_set(dist, target, m, seed) for m, seed in zip(sizes, seeds)]
    twins = [LabeledSample(s.n, s.masks, s.labels) for s in drawn]
    for s, twin in zip(drawn, twins):
        assert ("cover" in vars(s)) == COVER_PATHS[path] and s == twin
        assert set(zip(*s.cover)) == set(zip(s.masks, s.labels))
        assert twin.cover == (twin.masks, twin.labels)
    oracle, twin_oracle = (LocalMQOracle.for_samples(target, q, *samples) for samples in (drawn, twins))
    assert (oracle._anchors, oracle.query_cap) == (twin_oracle._anchors, twin_oracle.query_cap)
    run, twin_run = learn_evident_dnf_run(*drawn, oracle), learn_evident_dnf_run(*twins, twin_oracle)
    assert run.formula.terms == twin_run.formula.terms
    assert (run.oracle_stats, run.positives_seen, run.terms_added, run.terms_pruned) == (
        twin_run.oracle_stats, twin_run.positives_seen, twin_run.terms_added, twin_run.terms_pruned)
    assert oracle.entries() == twin_oracle.entries()


def _reference_reconstruct(x, oracle, times=1):
    """The per-flip loop: one ``ask`` per coordinate, coordinate 1 first."""
    positives, negatives = set(), set()
    for j in range(1, x.n + 1):
        bit = 1 << (x.n - j)
        if oracle.ask(x.mask ^ bit, times) == 0:
            (positives if x.mask & bit else negatives).add(j)
    return Term(frozenset(positives), frozenset(negatives))


def _asked_term(x, oracle, times):
    """The masks ``reconstruct_term`` gives, its batch counted ``times`` times: past once, ``ask_flips(x, times)``."""
    if times == 1:
        return reconstruct_term(x.mask, oracle)
    kept = ~oracle.ask_flips(x.mask, times) & (1 << x.n) - 1
    return kept & x.mask, kept & ~x.mask


@settings(max_examples=60, deadline=None)
@given(repeated_samples(), st.integers(0, 2), st.none() | st.integers(0, 400))
def test_reconstruct_term_matches_per_flip_reference(case, q, cap):
    target, dist, m1, m2, (seed1, seed2) = case
    s1 = draw_training_set(dist, target, m1, seed1)
    s2 = draw_training_set(dist, target, m2, seed2)
    batched = LocalMQOracle.for_samples(target, q, s1, s2, query_cap=cap)
    reference = LocalMQOracle.for_samples(target, q, s1, s2, query_cap=cap)
    # Off-sample centres too, so some batches fall back to per-flip asks.
    centres = Counter(x for x, y in s1 if y == 1) + Counter(CubePoint(target.n, m) for m in range(3))
    for x, times in centres.items():
        try:
            expected = _reference_reconstruct(x, reference, times)
        except (BudgetExhausted, LocalityViolation) as err:
            with pytest.raises(type(err)):
                _asked_term(x, batched, times)
            break
        assert _asked_term(x, batched, times) == expected.masks(target.n)
    assert batched.entries() == reference.entries()
    assert batched.stats() == reference.stats()


def _pointwise_phase2(candidates, s2):
    """The pointwise pruning rule: drop a candidate that some negative mask of s2 satisfies."""
    negatives = {m for m, y in zip(s2.masks, s2.labels) if y == 0}
    return [(pos, neg) for pos, neg in candidates if not any((m & pos) == pos and (m & neg) == 0 for m in negatives)]


def _candidates(target, q, s1, s2):
    """Phase 1's candidates, one per distinct positive of s1 in order, from a fresh oracle."""
    oracle = LocalMQOracle.for_samples(target, q, s1, s2)
    positives = dict.fromkeys(m for m, y in zip(s1.masks, s1.labels) if y == 1)
    return list(dict.fromkeys(reconstruct_term(x, oracle) for x in positives))


def test_phase2_matches_the_pointwise_rule_on_random_samples():
    # Labels drawn at random, not from the target, so s2 may label one mask both ways.
    kept = pruned = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        target = random_dnf(n, rng.randint(1, 4), 3, rng)
        s1, s2 = (
            LabeledSample(n, tuple(rng.choices(range(1 << n), k=k)), tuple(rng.choices((0, 1), k=k)))
            for k in (rng.randint(0, 30), rng.choice([0, 1, 3, 10, 60]))
        )
        candidates = _candidates(target, 1, s1, s2)
        expected = _pointwise_phase2(candidates, s2)
        run = learn_evident_dnf_run(s1, s2, LocalMQOracle.for_samples(target, 1, s1, s2))
        assert run.formula.terms == tuple(Term.from_masks(n, pos, neg) for pos, neg in expected)
        assert (run.terms_added, run.terms_pruned) == (len(candidates), len(candidates) - len(expected))
        kept, pruned = kept + len(expected), pruned + len(candidates) - len(expected)
    assert kept > 100 and pruned > 100


def _set_scan_phase2(candidates, s2):
    """Phase 2 as a set scan: the distinct negatives of s2's cover in a set, and a candidate dropped when pos is the
    part of some negative m that pos | neg selects."""
    negatives = set(compress(s2.cover[0], s2.cover[1].translate(NEGATE)))
    n = s2.n
    return [Term.from_masks(n, pos, neg) for pos, neg in candidates if pos not in map((pos | neg).__and__, negatives)]


@st.composite
def phase2_cases(draw):
    """Candidate mask pairs, junk among them, and a second sample with random labels, about 30% negative: none, one,
    a few, or three blocks' worth of masks and more (about one block of negatives, the lanes phase 2 lays out), at
    widths of 1 to 8 bytes (n = 64) and past them."""
    n = draw(st.sampled_from([1, 5, 8, 9, 16, 17, 32, 33, 64, 65]))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    size = draw(st.just(3 * _DRAW_BLOCK + 5) | st.sampled_from([0, 1, 7]))
    pool = [rng.getrandbits(n) for _ in range(draw(st.integers(1, 40)))]
    masks = tuple(rng.choice(pool) if rng.random() < 0.5 else rng.getrandbits(n) for _ in range(size))
    s2 = LabeledSample(n, masks, bytes(rng.random() < 0.7 for _ in range(size)))
    candidates = []
    for _ in range(draw(st.integers(1, 12) | st.just(0))):
        kind = rng.choice(["random", "empty", "point", "wide"])
        if kind == "random":  # junk: any disjoint pair
            pos = rng.getrandbits(n)
            candidates.append((pos, rng.getrandbits(n) & ~pos))
        elif kind == "empty":
            candidates.append((0, 0))
        else:  # a term over every coordinate at a sampled point, or all but one: it fires there (and at one flip)
            x = rng.choice(masks) if masks else rng.getrandbits(n)
            keep = (1 << n) - 1 if kind == "point" else (1 << n) - 1 & ~(1 << rng.randrange(n))
            candidates.append((x & keep, ~x & keep))
    return list(dict.fromkeys(candidates)), s2


@settings(max_examples=80, deadline=None)
@given(phase2_cases())
def test_phase2_on_lanes_matches_the_set_scan(case):
    candidates, s2 = case
    assert prune_terms(candidates, s2) == _set_scan_phase2(candidates, s2)


@st.composite
def phase2_negative_blocks(draw):
    """Candidate mask pairs and a second sample of three to four blocks of negatives, the lanes phase 2 lays out,
    with a few positives among them; most candidates fire first at a negative of any block, the last and short one
    included, so pruning goes on across blocks."""
    n = draw(st.sampled_from([16, 17, 32, 33, 64, 65]))
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    negative_count = 3 * _DRAW_BLOCK + draw(st.sampled_from([0, 1, 5, _DRAW_BLOCK - 1]))
    labels = [0] * negative_count + [1] * draw(st.integers(0, 40))
    rng.shuffle(labels)
    s2 = LabeledSample(n, tuple(rng.getrandbits(n) for _ in labels), bytes(labels))
    negatives = [x for x, y in zip(s2.masks, labels) if not y]
    pools = {"point": negatives, "wide": negatives, "late": negatives[3 * _DRAW_BLOCK:] or negatives[2 * _DRAW_BLOCK:],
             "positive": [x for x, y in zip(s2.masks, labels) if y] or negatives}
    full, candidates = (1 << n) - 1, []
    for _ in range(draw(st.integers(1, 12))):
        kind = rng.choice(["point", "wide", "late", "positive", "narrow"])
        if kind == "narrow":  # one to three literals: fires early, if at all
            reads = sum(1 << j for j in rng.sample(range(n), rng.randint(1, 3)))
            pos = rng.getrandbits(n) & reads
            candidates.append((pos, reads & ~pos))
        else:  # every coordinate, or all but one, at a sampled point: it fires there and at most at one flip
            x, keep = rng.choice(pools[kind]), full if kind != "wide" else full & ~(1 << rng.randrange(n))
            candidates.append((x & keep, ~x & keep))
    return list(dict.fromkeys(candidates)), s2


@settings(max_examples=30, deadline=None)
@given(phase2_negative_blocks())
def test_phase2_prunes_across_blocks_of_negatives_as_the_set_scan(case):
    candidates, s2 = case
    negatives = list(compress(s2.cover[0], s2.cover[1].translate(NEGATE)))
    assert len(negatives) >= 3 * _DRAW_BLOCK
    # The block of the first negative each candidate fires at, as phase 2 lays the negatives out.
    drops = [next((i // _DRAW_BLOCK for i, x in enumerate(negatives) if x & (pos | neg) == pos), None)
             for pos, neg in candidates]
    event(f"last drop in block {max((b for b in drops if b is not None), default=None)}")
    assert prune_terms(candidates, s2) == _set_scan_phase2(candidates, s2)


@pytest.mark.parametrize("n", [16, 64])
def test_phase2_drops_a_candidate_at_the_last_block_of_three(n):
    # Distinct masks, every one negative but the last: a term over every coordinate fires at its one point, so the
    # term at the last mask survives, and the one at the last negative is dropped in the third block, a short one.
    rng = random.Random(n)
    masks = [rng.getrandbits(n - 16) << 16 | i for i in rng.sample(range(1 << 16), 2 * _DRAW_BLOCK + 3)]
    s2 = LabeledSample(n, tuple(masks), bytes(len(masks) - 1) + b"\x01")
    candidates = [(x, ~x & (1 << n) - 1) for x in (masks[-1], masks[-2], masks[0])]
    assert prune_terms(candidates, s2) == _set_scan_phase2(candidates, s2) == [Term.from_masks(n, *candidates[0])]


def test_phase2_at_64_variables_matches_the_set_scan_in_a_learning_trial():
    # Lanes 8 bytes wide: the opposite-literal target's terms are learned and survive, as the set scan has it.
    target = gen_opposite_literal_dnf(64, 3, 3, seed=5)
    dist = UniformCube(64)
    s1, s2 = draw_training_set(dist, target, 2000, 1), draw_training_set(dist, target, 3 * _DRAW_BLOCK, 2)
    candidates = _candidates(target, 1, s1, s2)
    run = learn_evident_dnf_run(s1, s2, LocalMQOracle.for_samples(target, 1, s1, s2))
    assert list(run.formula.terms) == _set_scan_phase2(candidates, s2)
    assert set(run.formula.terms) == set(target.terms)


def _lanes_given(monkeypatch) -> list[int]:
    """The number of masks each call of phase 2's ``lane_columns`` is given, in order, from now on."""
    given, lane_columns = [], learner.lane_columns

    def counted(masks, n, reads):
        given.append(len(masks))
        return lane_columns(masks, n, reads)

    monkeypatch.setattr(learner, "lane_columns", counted)
    return given


@pytest.mark.parametrize(
    "family, m2",
    [(opposite_literal_family(24, 32), 20000), (doubled_tree_family(4, 8, max_leaves=16), 50000)],
    ids=["wide-trial-0", "doubled-tree-trial-0"],
)
def test_phase2_reads_only_the_negatives_of_s2s_cover(monkeypatch, family, m2):
    # Trial 0 of the suite at seed 42, drawn as run_trial draws it: phase 2 lays out the cover's negatives alone.
    seed = derive_seed(42, "trial", 0)
    target, dist = family(derive_seed(seed, "instance"))
    s1, s2 = (draw_training_set(dist, target, m, derive_seed(seed, role)) for role, m in (("s1", 5000), ("s2", m2)))
    oracle = LocalMQOracle.for_samples(target, 1, s1, s2)
    given = _lanes_given(monkeypatch)
    run = learn_evident_dnf_run(s1, s2, oracle)
    assert run.formula.terms and sum(given) == s2.cover[1].count(0) > 0


def test_phase2_with_no_negative_in_the_cover_lays_out_nothing_and_keeps_every_candidate(monkeypatch):
    n, rng = 9, random.Random(9)
    s2 = LabeledSample(n, tuple(rng.getrandbits(n) for _ in range(50)), bytes([1]) * 50)
    candidates = [(0, 0), (0b101, 0b010), (1 << n - 1, 0)]
    given = _lanes_given(monkeypatch)
    assert prune_terms(candidates, s2) == [Term.from_masks(n, *pair) for pair in candidates]
    assert given == []


@pytest.mark.parametrize(
    "s2_pairs, survives",
    [
        ((), True),
        ((("++-", 1),), True),
        ((("++-", 1), ("++-", 0)), False),
        ((("++-", 0), ("++-", 1)), False),
        ((("+++", 1), ("+++", 0), ("-+-", 0)), False),
        ((("-+-", 0), ("+-+", 0), ("---", 0)), True),
    ],
    ids=["empty", "positive", "both-labels", "both-labels-negative-first", "both-labels-other-point", "misses"],
)
def test_phase2_prunes_on_a_mask_that_carries_both_labels(s2_pairs, survives):
    # x1 AND x2 is the one candidate; a negative occurrence prunes it whatever else its mask carries.
    target = DnfFormula(3, (Term.of(1, 2),))
    s1, s2 = S(3, ("++-", 1)), S(3, *s2_pairs)
    assert _candidates(target, 1, s1, s2) == [Term.of(1, 2).masks(3)]
    run = learn_evident_dnf_run(s1, s2, LocalMQOracle.for_samples(target, 1, s1, s2))
    assert run.formula.terms == ((Term.of(1, 2),) if survives else ())
    assert run.terms_pruned == (not survives)
    assert bool(_pointwise_phase2(_candidates(target, 1, s1, s2), s2)) == survives
