import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lmqlab.concepts import (
    DecisionTree,
    DnfFormula,
    Junta,
    Leaf,
    Node,
    SparsePoly,
    SparsePtf,
    Term,
    maj_poly,
    parity_dfa,
    random_dfa,
    random_dnf,
    random_junta,
    random_tree,
)
from lmqlab.cube import CubePoint, DimensionMismatch, ReplicateMap, enumerate_cube, masks_at_distance
from lmqlab.distributions import LabeledSample, UniformCube
from lmqlab.learner import learn_evident_dnf, reconstruct_term
from lmqlab.oracle import LocalityViolation, LocalMQOracle, draw_training_set
from lmqlab.reductions import (
    CONSTRUCTIONS,
    FLIP_RADIUS_CAP,
    QReduction,
    ReductionReport,
    SynthesizedLabels,
    build_block_checker,
    build_block_simulator,
    build_detector,
    corrupted_dfa_reduction_stuck_simulator,
    corrupted_dnf_reduction_without_detector,
    corrupted_tree_reduction_first_copy,
    dfa_product_or,
    majority_label,
    make_reduction,
    reduce_dnf_type_a,
    reduce_junta_type_b,
    reduce_poly_type_b,
    reduce_tree_type_b,
    simulate_pac_from_local,
    verify_reduction,
)
from lmqlab.harness import run_reduction_suite


def P(text: str) -> CubePoint:
    return CubePoint.from_string(text)


def _mapped_sample(reduction: QReduction, mapped):
    """Mapped training pairs (target point, label) as one target-cube sample.

    A real-valued concept's values are no 0/1 labels, so they ride in a plain
    record with the same fields: ``SynthesizedLabels`` reads only those.
    """
    n, masks, labels = reduction.phi.target_n, tuple(z.mask for z, _ in mapped), tuple(y for _, y in mapped)
    return LabeledSample(n, masks, labels) if set(labels) <= {0, 1} else SimpleNamespace(n=n, masks=masks, labels=labels)


def _synthesized(reduction: QReduction, mapped) -> LocalMQOracle:
    """The q-local oracle over labels synthesized from mapped training pairs."""
    labels = SynthesizedLabels(reduction, _mapped_sample(reduction, mapped))
    return LocalMQOracle(labels, [z for z, _ in mapped], reduction.q)


class TestReplicateMap:
    def test_triple_expansion(self):
        assert ReplicateMap(2, 3).apply(P("+-")) == P("+++---")

    def test_identity_factor(self):
        phi = ReplicateMap(3, 1)
        for x in enumerate_cube(3):
            assert phi.apply(x) == x

    def test_distance_scaling(self):
        phi = ReplicateMap(4, 3)
        points = list(enumerate_cube(4))
        for x in points:
            for y in points:
                assert phi.apply(x).hamming(phi.apply(y)) == 3 * x.hamming(y)

    def test_block_coordinates(self):
        phi = ReplicateMap(2, 4)
        assert list(phi.block_coordinates(2)) == [5, 6, 7, 8]


class TestDnfReduction:
    def test_detector_term_count(self):
        assert len(build_detector(ReplicateMap(2, 4)).terms) == 2 * 2 * 3

    def test_detector_silent_on_constant_blocks(self):
        phi = ReplicateMap(2, 4)
        g = build_detector(phi)
        for x in enumerate_cube(2):
            assert g.evaluate(phi.apply(x)) == 0

    def test_detector_fires_on_one_internal_flip(self):
        phi = ReplicateMap(2, 4)
        g = build_detector(phi)
        z = phi.apply(P("+-")).flip(2)
        assert g.evaluate(z) == 1

    def test_image_agreement(self):
        f = DnfFormula(2, (Term.of(1),))
        phi = ReplicateMap(2, 4)
        fp = reduce_dnf_type_a(f, phi)
        for x in enumerate_cube(2):
            assert fp.evaluate(phi.apply(x)) == f.evaluate(x)

    def test_verifier_passes(self):
        report = verify_reduction(make_reduction("dnf", 2), DnfFormula(2, (Term.of(1),)))
        assert report.passed
        assert report.image_checked == 4
        assert report.ball_checked > 0

    def test_lifted_terms_read_block_heads(self):
        f = DnfFormula(2, (Term.of(1, -2),))
        fp = reduce_dnf_type_a(f, ReplicateMap(2, 4))
        assert fp.terms[0] == Term(frozenset({1}), frozenset({5}))

    def test_custom_replication_factor(self):
        f = DnfFormula(2, (Term.of(1),))
        reduction = make_reduction("dnf", 2, k=6)
        assert reduction.q == 5
        assert reduction.phi.target_n == 12
        assert verify_reduction(reduction, f).passed


class TestDfaReduction:
    def test_simulator_transition_structure(self):
        a = parity_dfa(2)
        sim = build_block_simulator(a, ReplicateMap(2, 4))
        # State s*k + i is source state s (0 even, 1 odd) at 0-based block position i.
        assert sim.num_states == 2 * 4
        assert sim.delta[0][0] == 1  # (even, 1) on -1 -> (even, 2)
        assert sim.delta[3][0] == 4  # (even, 4) on -1 -> (odd, 1)
        assert sim.delta[3][1] == 0  # (even, 4) on +1 -> (even, 1)

    def test_simulator_agrees_with_source_on_images(self):
        a = parity_dfa(2)
        phi = ReplicateMap(2, 4)
        sim = build_block_simulator(a, phi)
        for x in enumerate_cube(2):
            assert sim.evaluate(phi.apply(x)) == a.evaluate(x)

    def test_checker_rejects_images_accepts_flips(self):
        phi = ReplicateMap(2, 4)
        checker = build_block_checker(phi)
        for x in enumerate_cube(2):
            z = phi.apply(x)
            assert checker.evaluate(z) == 0
            for j in range(1, 9):
                assert checker.evaluate(z.flip(j)) == 1

    def test_checker_state_budget(self):
        assert build_block_checker(ReplicateMap(3, 9)).num_states <= 2 * 9 + 2

    def test_product_language_is_union(self):
        phi = ReplicateMap(2, 4)
        c = build_block_checker(phi)
        s = build_block_simulator(parity_dfa(2), phi)
        both = dfa_product_or(c, s)
        assert both.num_states == c.num_states * s.num_states
        for z in enumerate_cube(8):
            assert both.evaluate(z) == (c.evaluate(z) | s.evaluate(z))

    def test_verifier_passes(self):
        report = verify_reduction(make_reduction("dfa", 2), parity_dfa(2))
        assert report.passed
        rng = random.Random(5)
        report = verify_reduction(make_reduction("dfa", 3), random_dfa(3, 3, rng))
        assert report.passed

    def test_custom_replication_factor(self):
        reduction = make_reduction("dfa", 2, k=5)
        assert reduction.phi.target_n == 10
        assert verify_reduction(reduction, parity_dfa(2)).passed


class TestJuntaReduction:
    def test_single_variable_becomes_block_majority(self):
        h = Junta(1, (1,), (0, 1))
        hp = reduce_junta_type_b(h, ReplicateMap(1, 3))
        assert hp.k == 3
        assert hp.relevant == (1, 2, 3)
        maj = maj_poly(3)
        for z in enumerate_cube(3):
            expected = 1 if maj.evaluate(z) == 1 else 0
            assert hp.evaluate(z) == expected

    def test_zero_budget_is_renaming(self):
        h = Junta(3, (2, 3), (0, 1, 1, 1))
        hp = reduce_junta_type_b(h, ReplicateMap(3, 1))
        assert hp.relevant == (2, 3)
        assert hp.table == h.table

    def test_flips_below_budget_never_change_labels(self):
        h = Junta(4, (1, 2), (0, 1, 1, 0))
        for q0 in (1, 2):
            phi = ReplicateMap(4, 2 * q0 + 1)
            hp = reduce_junta_type_b(h, phi)
            for x in enumerate_cube(4):
                z = phi.apply(x)
                base = hp.evaluate(z)
                assert base == h.evaluate(x)
                for flips in combinations(range(1, phi.target_n + 1), q0):
                    w = z
                    for j in flips:
                        w = w.flip(j)
                    assert hp.evaluate(w) == base

    def test_depends_on_scaled_variable_count(self):
        h = Junta(5, (1, 4), (1, 0, 0, 1))
        assert reduce_junta_type_b(h, ReplicateMap(5, 5)).k == 5 * 2

    def test_cap_enforced(self):
        h = Junta(8, tuple(range(1, 7)), tuple([0, 1] * 32))
        with pytest.raises(ValueError):
            reduce_junta_type_b(h, ReplicateMap(8, 5))

    def test_verifier_passes(self):
        report = verify_reduction(make_reduction("junta", 4, q0=1), Junta(4, (1, 2), (0, 1, 1, 0)))
        assert report.passed

    def test_constant_junta_stays_constant(self):
        hp = make_reduction("junta", 2).transform(Junta(2, (), (1,)))
        assert (hp.n, hp.relevant, hp.table) == (6, (), (1,))
        assert verify_reduction(make_reduction("junta", 2), Junta(2, (), (1,))).passed


class TestTreeReduction:
    def test_leaf_count_power(self):
        tree = DecisionTree(2, Node(1, Leaf(0), Leaf(1)))
        assert reduce_tree_type_b(tree, ReplicateMap(2, 3)).leaf_count == 2 ** 3
        assert reduce_tree_type_b(tree, ReplicateMap(2, 5)).leaf_count == 2 ** 5

    def test_zero_budget_is_renaming(self):
        tree = DecisionTree(2, Node(1, Leaf(0), Node(2, Leaf(1), Leaf(0))))
        reduced = reduce_tree_type_b(tree, ReplicateMap(2, 1))
        for x in enumerate_cube(2):
            assert reduced.evaluate(x) == tree.evaluate(x)

    def test_semantics_is_majority_over_copies(self):
        rng = random.Random(44)
        tree = random_tree(3, 4, rng)
        q0 = 1
        reduced = reduce_tree_type_b(tree, ReplicateMap(3, 2 * q0 + 1))
        for z in enumerate_cube(9):
            copies = []
            for c in range(1, 2 * q0 + 2):
                bits = [z.bit((i - 1) * (2 * q0 + 1) + c) for i in range(1, 4)]
                copies.append(tree.evaluate(CubePoint.from_bits(bits)))
            assert reduced.evaluate(z) == majority_label(copies)

    def test_leaf_cap_enforced(self):
        # 16 ** 5 stacked leaves at q0=2, far above TREE_LEAF_CAP.
        tree = random_tree(4, 16, random.Random(1))
        with pytest.raises(ValueError):
            reduce_tree_type_b(tree, ReplicateMap(4, 5))

    def test_verifier_passes(self):
        tree = random_tree(4, 4, random.Random(2))
        assert verify_reduction(make_reduction("tree", 4, q0=1), tree).passed


class TestPolyReduction:
    def test_single_variable_becomes_majority_poly(self):
        p = SparsePoly(1, {frozenset({1}): Fraction(1)})
        grown = reduce_poly_type_b(p, ReplicateMap(1, 3))
        assert grown.monomials == maj_poly(3).monomials
        assert grown.degree <= 3
        assert grown.coefficient_count <= 8

    def test_zero_budget_unchanged(self):
        p = SparsePoly(3, {frozenset({1, 3}): Fraction(2, 7), frozenset(): Fraction(1)})
        assert reduce_poly_type_b(p, ReplicateMap(3, 1)).monomials == p.monomials

    def test_values_preserved_through_map(self):
        p = SparsePoly(
            4, {frozenset({1, 2}): Fraction(1, 3), frozenset({4}): Fraction(-2), frozenset(): Fraction(1, 5)}
        )
        for q0 in (0, 1):
            phi = ReplicateMap(4, 2 * q0 + 1)
            grown = reduce_poly_type_b(p, phi)
            for x in enumerate_cube(4):
                assert grown.evaluate(phi.apply(x)) == p.evaluate(x)

    def test_degree_two_expansion_is_product_of_supports(self):
        # Majority factors on disjoint blocks multiply coefficient counts.
        p = SparsePoly(2, {frozenset({1, 2}): Fraction(1)})
        grown = reduce_poly_type_b(p, ReplicateMap(2, 3))
        assert grown.degree == 6
        assert grown.coefficient_count == 16

    def test_all_pairs_quadratic_within_cap(self):
        # 1770 monomials of degree 2, each expanding to 4 x 4 disjoint-block products.
        pairs = {frozenset(pair): Fraction(1) for pair in combinations(range(1, 61), 2)}
        grown = reduce_poly_type_b(SparsePoly(60, pairs), ReplicateMap(60, 3))
        assert grown.coefficient_count == 28_320

    def test_coefficient_cap_enforced(self):
        # 4950 pairs x 16 = 79,200 coefficients, above POLY_COEFF_CAP = 65,536.
        pairs = {frozenset(pair): Fraction(1) for pair in combinations(range(1, 101), 2)}
        with pytest.raises(ValueError, match="cap"):
            reduce_poly_type_b(SparsePoly(100, pairs), ReplicateMap(100, 3))

    def test_ptf_threshold_preserved(self):
        poly = SparsePoly(3, {frozenset({j}): Fraction(1) for j in range(1, 4)})
        f = SparsePtf(poly, Fraction(1, 2))
        grown = make_reduction("ptf", 3, q0=1).transform(f)
        assert grown.theta == f.theta
        phi = ReplicateMap(3, 3)
        for x in enumerate_cube(3):
            assert grown.evaluate(phi.apply(x)) == f.evaluate(x)

    def test_verifier_passes_linear_and_ptf(self):
        linear = SparsePoly(3, {frozenset({1}): Fraction(1, 2), frozenset({2}): Fraction(1, 3)})
        assert verify_reduction(make_reduction("poly", 3, q0=1), linear).passed
        ptf = SparsePtf(linear, Fraction(0))
        assert verify_reduction(make_reduction("ptf", 3, q0=2), ptf).passed


class TestSimulation:
    def _samples(self, concept, n, m, seed):
        dist = UniformCube(n)
        return (
            draw_training_set(dist, concept, m, seed),
            draw_training_set(dist, concept, m, seed + 1),
        )

    def test_kind_a_answers_match_ground_truth(self):
        f = DnfFormula(3, (Term.of(1),))
        reduction = make_reduction("dnf", 3)
        s1, s2 = self._samples(f, 3, 200, seed=900)
        transformed = reduction.transform(f)
        composed, oracle = simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)
        assert len(oracle.log) == 27 * sum(s1.labels)
        for rec in oracle.log:
            assert rec.answer == transformed.evaluate(rec.point)

    def test_kind_a_off_image_answer_is_one(self):
        reduction = make_reduction("dnf", 2)
        anchor = ReplicateMap(2, 4).apply(P("+-"))
        oracle = _synthesized(reduction, [(anchor, 1)])
        assert oracle.query(anchor.flip(3)) == 1

    def test_kind_a_anchor_answer_is_its_label(self):
        reduction = make_reduction("dnf", 2)
        anchor = ReplicateMap(2, 4).apply(P("-+"))
        oracle = _synthesized(reduction, [(anchor, 0)])
        assert oracle.query(anchor) == 0

    def test_kind_a_untrained_image_is_refused(self):
        # The target labels phi(--) 0; an answer of 1 there would be silently wrong.
        reduction = make_reduction("dnf", 2)
        phi = reduction.phi
        h = DnfFormula(2, (Term.of(1, 2),))
        assert reduction.transform(h).evaluate(phi.apply(P("--"))) == 0
        oracle = _synthesized(reduction, [(phi.apply(P("++")), 1)])
        with pytest.raises(LocalityViolation) as exc:
            oracle.query(phi.apply(P("--")))
        assert (exc.value.min_distance, exc.value.q) == (8, 3)
        assert oracle.log == ()

    def test_kind_b_answers_match_ground_truth(self):
        h = Junta(4, (1, 2), (0, 1, 1, 0))
        reduction = make_reduction("junta", 4, q0=1)
        s1, s2 = self._samples(h, 4, 200, seed=901)
        transformed = reduction.transform(h)
        composed, oracle = simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)
        assert len(oracle.log) == 12 * sum(s1.labels)
        for rec in oracle.log:
            assert rec.answer == transformed.evaluate(rec.point)
        for x in enumerate_cube(4):
            assert composed.evaluate(x) in (0, 1)

    def test_kind_b_unique_anchor_at_distance_zero(self):
        reduction = make_reduction("junta", 2, q0=1)
        phi = reduction.phi
        z = phi.apply(P("+-"))
        oracle = _synthesized(reduction, [(z, 1), (phi.apply(P("-+")), 0)])
        assert oracle.query(z) == 1
        assert oracle.query(z.flip(1)) == 1

    def test_kind_b_no_anchor_raises(self):
        reduction = make_reduction("junta", 2, q0=1)
        phi = reduction.phi
        oracle = _synthesized(reduction, [(phi.apply(P("++")), 1)])
        with pytest.raises(LocalityViolation) as exc:
            oracle.query(phi.apply(P("--")))
        assert (exc.value.min_distance, exc.value.q) == (6, 1)
        assert oracle.log == ()

    @pytest.mark.parametrize("other_n", [1, 3])
    def test_sample_of_another_dimension_refused(self, other_n):
        # Both wrong samples would map to valid target masks: only the dimension tells.
        reduction = make_reduction("dnf", 2)
        good, other = LabeledSample(2, (3, 1), (1, 0)), LabeledSample(other_n, (1, 1), (1, 0))
        for s1, s2 in ((other, good), (good, other)):
            with pytest.raises(DimensionMismatch, match="map expects dimension 2"):
                simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)

    def test_sample_pipeline_builds_points_only_for_distinct_anchors(self, monkeypatch):
        f = DnfFormula(3, (Term.of(1),))
        reduction = make_reduction("dnf", 3)
        built = []
        original = CubePoint.__post_init__

        def counting(point):
            built.append(point.mask)
            original(point)

        monkeypatch.setattr(CubePoint, "__post_init__", counting)
        s1, s2 = self._samples(f, 3, 200, seed=900)
        assert built == [] and len(set(s1.masks + s2.masks)) < len(s1) + len(s2)
        oracle = LocalMQOracle.for_samples(f, 1, s1, s2)
        assert sorted(built) == sorted(set(s1.masks + s2.masks))
        built.clear()
        learn_evident_dnf(s1, s2, oracle)
        reconstruct_term(s1.masks[0], oracle)
        assert built == []
        simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)
        assert sorted(built) == sorted({reduction.phi.encode(m) for m in s1.masks + s2.masks})


KIND_B = sorted(name for name, c in CONSTRUCTIONS.items() if c.kind == "B")


def _kind_b_concept(name: str, n: int, rng: random.Random):
    if name == "junta":
        return random_junta(n, min(2, n), rng)
    if name == "tree":
        return random_tree(n, 4, rng)
    coeffs = {frozenset({j}): Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for j in range(1, n + 1)}
    poly = SparsePoly(n, coeffs)
    return poly if name == "poly" else SparsePtf(poly, Fraction(rng.randint(-2, 2), 3))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(KIND_B),
    n=st.integers(1, 4),
    q0=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32),
    subset=st.integers(0, 2**16 - 1),
)
def test_kind_b_synthesis_answers_within_q_and_refuses_beyond(name, n, q0, seed, subset):
    rng = random.Random(seed)
    reduction = make_reduction(name, n, q0=q0)
    phi, q, target_n = reduction.phi, reduction.q, reduction.phi.target_n
    h = _kind_b_concept(name, n, rng)
    transformed = reduction.transform(h)
    sources = list(enumerate_cube(n))
    mapped = [(phi.apply(x), h.evaluate(x)) for x in sources if subset >> x.mask & 1]
    trained = [z for z, _ in mapped]
    oracle = _synthesized(reduction, mapped)

    within = {m for z in trained for r in range(q + 1) for m in masks_at_distance(z.mask, target_n, r)}
    for m in within:
        z = CubePoint(target_n, m)
        assert oracle.query(z) == transformed.evaluate(z)

    # Just past the radius around each training image, and every untrained image.
    beyond = {phi.apply(x).mask for x in sources}
    for z in trained:
        for _ in range(5):
            beyond.add(z.mask ^ sum(1 << p for p in rng.sample(range(target_n), q + 1)))
    for m in beyond - within:
        with pytest.raises(LocalityViolation):
            oracle.query(CubePoint(target_n, m))


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(["dnf", "dfa"]),
    n=st.integers(1, 3),
    k=st.integers(2, 4),
    seed=st.integers(0, 2**32),
    subset=st.integers(0, 2**8 - 1),
)
def test_kind_a_synthesis_answers_within_q_and_refuses_beyond(name, n, k, seed, subset):
    rng = random.Random(seed)
    reduction = make_reduction(name, n, k=k)
    phi, q, target_n = reduction.phi, reduction.q, reduction.phi.target_n
    h = random_dnf(n, 2, 2, rng) if name == "dnf" else random_dfa(n, 3, rng)
    transformed = reduction.transform(h)
    mapped = [(phi.apply(x), h.evaluate(x)) for x in enumerate_cube(n) if subset >> x.mask & 1]
    oracle = _synthesized(reduction, mapped)
    for z in enumerate_cube(target_n):
        if any(z.hamming(image) <= q for image, _ in mapped):
            assert oracle.query(z) == transformed.evaluate(z)
        else:
            with pytest.raises(LocalityViolation):
                oracle.query(z)


@pytest.mark.parametrize(
    "name, n, wrong", [("dnf", 2, [CubePoint(3, 5), CubePoint(20, 12345)]), ("junta", 4, [CubePoint(5, 9)])]
)
def test_synthesized_labels_refuse_another_dimension(name, n, wrong):
    # Kind A over 8 target bits and kind B over 12: neither may answer a point of another dimension.
    reduction = make_reduction(name, n)
    h = CONSTRUCTIONS[name].example(n, random.Random(0))
    mapped = [(reduction.phi.apply(x), h.evaluate(x)) for x in enumerate_cube(n)]
    labels = SynthesizedLabels(reduction, _mapped_sample(reduction, mapped))
    for z in wrong:
        with pytest.raises(DimensionMismatch):
            labels.evaluate(z)


def _nearest_sources(phi: ReplicateMap, z: int) -> list[int]:
    """Brute force: the source masks whose images are nearest to z, over all 2^n images."""
    distances = {x.mask: (phi.apply(x).mask ^ z).bit_count() for x in enumerate_cube(phi.source_n)}
    best = min(distances.values())
    return [src for src, d in distances.items() if d == best]


@settings(max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(1, 9).flatmap(
            lambda k: st.tuples(
                st.just(n),
                st.just(k),
                st.integers(0, (1 << n) - 1),
                st.sets(st.integers(0, n * k - 1), max_size=(k - 1) // 2),
            )
        )
    )
)
def test_decode_matches_brute_force_nearest_image(case):
    # Up to q flips with 2q < k, for odd and even k alike.
    n, k, source, flips = case
    phi = ReplicateMap(n, k)
    z = phi.apply(CubePoint(n, source)).mask ^ sum(1 << p for p in flips)
    assert _nearest_sources(phi, z) == [source]
    assert phi.decode(z) == source


@settings(max_examples=60)
@given(kind=st.sampled_from("AB"), n=st.integers(1, 4), k=st.integers(1, 9), q=st.integers(0, 9))
def test_qreduction_requires_image_spacing(kind, n, k, q):
    def build():
        return QReduction("spacing", kind, ReplicateMap(n, k), q, lambda h: h)

    if k > (q if kind == "A" else 2 * q):
        assert build().q == q
    else:
        with pytest.raises(ValueError, match="needs k >"):
            build()


class TestMakeReduction:
    def test_kind_a_replicates_k_times(self):
        assert make_reduction("dnf", 3).phi == ReplicateMap(3, 9)
        r = make_reduction("dfa", 2, k=5, q0=7)
        assert (r.kind, r.phi, r.q) == ("A", ReplicateMap(2, 5), 4)

    def test_kind_b_takes_odd_copies(self):
        r = make_reduction("tree", 3, k=9, q0=2)
        assert (r.kind, r.phi, r.q) == ("B", ReplicateMap(3, 5), 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown construction"):
            make_reduction("cnf", 2)

    @pytest.mark.parametrize("name", list(CONSTRUCTIONS))
    def test_transform_refuses_another_dimension(self, name):
        # phi maps dimension 2; a dimension-3 concept must not come out over a wrong-sized cube.
        concept = CONSTRUCTIONS[name].example(3, random.Random(0))
        with pytest.raises(DimensionMismatch, match="maps dimension 2, concept has 3"):
            make_reduction(name, 2).transform(concept)

    def test_negative_controls_share_the_replication_policy(self):
        pairs = [
            (corrupted_dnf_reduction_without_detector(2), make_reduction("dnf", 2)),
            (corrupted_dfa_reduction_stuck_simulator(2), make_reduction("dfa", 2)),
            (corrupted_tree_reduction_first_copy(2, 1), make_reduction("tree", 2, q0=1)),
        ]
        for broken, shipped in pairs:
            assert (broken.kind, broken.phi, broken.q) == (shipped.kind, shipped.phi, shipped.q)
            assert broken.name != shipped.name


class TestNegativeControls:
    def test_missing_detector_is_flagged(self):
        report = verify_reduction(
            corrupted_dnf_reduction_without_detector(2), DnfFormula(2, (Term.of(1),))
        )
        assert not report.passed
        assert report.ball_failures > 0
        assert report.counterexamples

    def test_stuck_simulator_is_flagged(self):
        report = verify_reduction(corrupted_dfa_reduction_stuck_simulator(2), parity_dfa(2))
        assert not report.passed
        assert report.counterexamples

    def test_first_copy_labeling_is_flagged(self):
        tree = DecisionTree(2, Node(1, Leaf(0), Leaf(1)))
        report = verify_reduction(corrupted_tree_reduction_first_copy(2, 1), tree)
        assert not report.passed
        assert report.ball_failures > 0
        assert report.counterexamples


class TestVerifierGuards:
    def test_flip_budget_guard(self):
        # Radius 3 over 216 target bits needs ~1.7M checks per source point.
        with pytest.raises(ValueError, match="budget"):
            verify_reduction(make_reduction("dnf", 6), DnfFormula(6, (Term.of(1),)))

    def test_ball_radius_respects_cap(self):
        reduction = make_reduction("dnf", 3)
        report = verify_reduction(reduction, DnfFormula(3, (Term.of(1),)))
        assert report.flip_radius == min(reduction.q, FLIP_RADIUS_CAP) == 3
        assert report.passed


# ---------------------------------------------------------------------------
# The mask walk of verify_reduction against its CubePoint reference


def _reference_verify(reduction: QReduction, concept) -> dict:
    """Brute-force reference for verify_reduction: builds a CubePoint per checked point and calls evaluate."""
    phi = reduction.phi
    n, n_target = phi.source_n, phi.target_n
    transformed = reduction.transform(concept)
    radius = min(reduction.q, FLIP_RADIUS_CAP)
    report = ReductionReport(reduction.name, reduction.kind, n, n_target, reduction.q, radius)

    def note(kind: str, z: CubePoint, expected, got) -> None:
        if len(report.counterexamples) < 10:
            report.counterexamples.append(
                {"check": kind, "point": z.to_string(), "expected": str(expected), "got": str(got)}
            )

    source_points = list(enumerate_cube(n))
    values = [concept.evaluate(x) for x in source_points]
    image_masks = [phi.apply(x).mask for x in source_points]
    images = set(image_masks)

    for x in source_points:
        z = CubePoint(n_target, image_masks[x.mask])
        got = transformed.evaluate(z)
        report.image_checked += 1
        if got != values[x.mask]:
            report.image_failures += 1
            note("image", z, values[x.mask], got)

    seen: set[int] = set()
    for image in image_masks:
        for r in range(1, radius + 1):
            for m in masks_at_distance(image, n_target, r):
                if m in images or m in seen:
                    continue
                seen.add(m)
                z = CubePoint(n_target, m)
                report.ball_checked += 1
                if reduction.kind == "A":
                    got = transformed.evaluate(z)
                    if got != 1:
                        report.ball_failures += 1
                        note("ball", z, 1, got)
                else:
                    source = phi.decode(m)
                    distance = (image_masks[source] ^ m).bit_count()
                    if distance > reduction.q:
                        report.anchor_failures += 1
                        note("anchor", z, f"decoded image within {reduction.q}", distance)
                        continue
                    expected = values[source]
                    got = transformed.evaluate(z)
                    if got != expected:
                        report.ball_failures += 1
                        note("ball", z, expected, got)
    return report.to_dict()


# The reduction matrix's sizes: (construction, n, q0); kind A ignores q0.
MATRIX_SIZES = [
    ("dnf", 2, 1), ("dnf", 3, 1), ("dfa", 2, 1), ("dfa", 3, 1),
    ("junta", 4, 1), ("junta", 4, 2), ("junta", 6, 1),
    ("tree", 4, 1), ("tree", 4, 2), ("tree", 6, 1),
    ("poly", 4, 1), ("poly", 4, 2), ("ptf", 4, 1), ("ptf", 4, 2),
]


@pytest.mark.parametrize(
    "name, n, q0", MATRIX_SIZES, ids=[f"{c}-n{n}" + f"-q0={q}" * (c in KIND_B) for c, n, q in MATRIX_SIZES]
)
def test_verify_reduction_matches_reference_on_seeded_examples(name, n, q0):
    reduction = make_reduction(name, n, q0=q0)
    for seed in range(3):
        concept = CONSTRUCTIONS[name].example(n, random.Random(seed))
        report = verify_reduction(reduction, concept).to_dict()
        assert report["passed"]
        assert report == _reference_verify(reduction, concept)


NEGATIVE_CONTROLS = [
    (corrupted_dnf_reduction_without_detector(2), DnfFormula(2, (Term.of(1),))),
    (corrupted_dnf_reduction_without_detector(3), DnfFormula(3, (Term.of(1, -2), Term.of(3)))),
    (corrupted_dfa_reduction_stuck_simulator(2), parity_dfa(2)),
    (corrupted_dfa_reduction_stuck_simulator(3), parity_dfa(3)),
    (corrupted_tree_reduction_first_copy(2, 1), DecisionTree(2, Node(1, Leaf(0), Leaf(1)))),
    (corrupted_tree_reduction_first_copy(4, 2), random_tree(4, 4, random.Random(2))),
]


@pytest.mark.parametrize(
    "broken, concept", NEGATIVE_CONTROLS, ids=[f"{b.name}-n{b.phi.source_n}" for b, _ in NEGATIVE_CONTROLS]
)
def test_negative_controls_match_reference(broken, concept):
    report = verify_reduction(broken, concept).to_dict()
    assert not report["passed"] and report["counterexamples"]
    assert report == _reference_verify(broken, concept)


@pytest.mark.parametrize(
    "broken, concept",
    [
        (corrupted_dnf_reduction_without_detector(2), DnfFormula(3, (Term.of(1),))),
        (corrupted_dfa_reduction_stuck_simulator(2), parity_dfa(3)),
        (corrupted_tree_reduction_first_copy(2, 1), DecisionTree(1, Node(1, Leaf(0), Leaf(1)))),
    ],
    ids=["dnf", "dfa", "tree"],
)
def test_negative_control_refuses_concept_of_another_dimension(broken, concept):
    # These transforms skip make_reduction's check; read on masks, the concept would answer anyway.
    with pytest.raises(DimensionMismatch):
        verify_reduction(broken, concept)


def test_poly_reduction_is_checked_by_exact_value():
    # Doubling every coefficient keeps every sign, so only the exact values tell.
    shipped = make_reduction("poly", 2)

    def doubled(p: SparsePoly) -> SparsePoly:
        return shipped.transform(SparsePoly(p.n, {v: 2 * c for v, c in p.monomials.items()}))

    broken = replace(shipped, transform=doubled)
    concept = SparsePoly(2, {frozenset({1}): Fraction(1, 2), frozenset(): Fraction(1, 3)})
    report = verify_reduction(broken, concept).to_dict()
    assert report["image_failures"] == 4 and report["ball_failures"] == report["ball_checked"]
    assert report["counterexamples"][0] == {"check": "image", "point": "------", "expected": "-1/6", "got": "-1/3"}
    assert report == _reference_verify(broken, concept)


def test_verify_reduction_refuses_transform_into_another_dimension():
    identity = replace(make_reduction("dnf", 2), transform=lambda h: h)
    with pytest.raises(DimensionMismatch):
        verify_reduction(identity, DnfFormula(2, (Term.of(1),)))


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "5204f51fba6b61fcdf21e8ac412dc88dda151b8d643275b9a7fa6729783203ff"),
        (1, "6104f894f6f0484d5afc9bd386353a9dede7487389e29c33c9472a8c4ab946ac"),
    ],
)
def test_reduction_suite_digest_is_pinned(seed, digest):
    payload = json.dumps(run_reduction_suite(seed).to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
