import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cubes import cube_points
from lmqlab import harness, reductions
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
from lmqlab.cube import CubePoint, DimensionMismatch, ReplicateMap, masks_at_distance
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

    A real-valued concept's values are no 0/1 labels, even a ``Fraction`` equal
    to 0 or 1, which ``LabeledSample`` refuses as it refuses a float, so they ride
    in a plain record with the same fields: ``SynthesizedLabels`` reads only those.
    """
    n, masks, labels = reduction.phi.target_n, tuple(z.mask for z, _ in mapped), tuple(y for _, y in mapped)
    if set(map(type, labels)) <= {int} and set(labels) <= {0, 1}:
        return LabeledSample(n, masks, labels)
    return SimpleNamespace(n=n, masks=masks, labels=labels)


def _synthesized(reduction: QReduction, mapped) -> LocalMQOracle:
    """The q-local oracle over labels synthesized from mapped training pairs."""
    labels = SynthesizedLabels(reduction, _mapped_sample(reduction, mapped))
    return LocalMQOracle(labels, [z for z, _ in mapped], reduction.q)


class TestReplicateMap:
    def test_triple_expansion(self):
        assert ReplicateMap(2, 3).apply(P("+-")) == P("+++---")

    def test_identity_factor(self):
        phi = ReplicateMap(3, 1)
        for x in cube_points(3):
            assert phi.apply(x) == x

    def test_distance_scaling(self):
        phi = ReplicateMap(4, 3)
        points = cube_points(4)
        for x in points:
            for y in points:
                assert (phi.apply(x).mask ^ phi.apply(y).mask).bit_count() == 3 * (x.mask ^ y.mask).bit_count()

    def test_block_coordinates(self):
        phi = ReplicateMap(2, 4)
        assert list(phi.block_coordinates(2)) == [5, 6, 7, 8]

    def test_encode_computes_its_blocks_and_stores_only_n_and_k(self):
        phi = ReplicateMap(300, 90_000)  # a table of blocks would hold 300 * 27,000,000 bits
        assert vars(phi) == {"source_n": 300, "k": 90_000}
        assert phi.encode(1) == (1 << 90_000) - 1 and phi.encode(1 << 299) == (1 << 90_000) - 1 << 299 * 90_000
        small = ReplicateMap(3, 2)
        blocks = [sum(3 << 2 * i for i in range(3) if m >> i & 1) for m in range(8)]
        assert [small.encode(m) for m in range(8)] == blocks


def test_an_over_budget_row_is_refused_before_its_transform_is_built():
    def transform(concept):
        raise AssertionError("the transform ran")

    reduction = replace(make_reduction("dnf", 40), reduce=lambda h, phi: transform(h))
    with pytest.raises(ValueError, match=r"^flip checks: \d+ exceeds the cap of 5000000$"):
        verify_reduction(reduction, DnfFormula(40, (Term.of(1),)))


class TestDnfReduction:
    def test_detector_term_count(self):
        assert len(build_detector(ReplicateMap(2, 4)).terms) == 2 * 2 * 3

    def test_detector_silent_on_constant_blocks(self):
        phi = ReplicateMap(2, 4)
        g = build_detector(phi)
        for x in cube_points(2):
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
        for x in cube_points(2):
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
        for x in cube_points(2):
            assert sim.evaluate(phi.apply(x)) == a.evaluate(x)

    def test_checker_rejects_images_accepts_flips(self):
        phi = ReplicateMap(2, 4)
        checker = build_block_checker(phi)
        for x in cube_points(2):
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
        for z in cube_points(8):
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
        for z in cube_points(3):
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
            for x in cube_points(4):
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

    @pytest.mark.parametrize("relevant", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_table_reads_each_block_majority_as_decode_does(self, relevant, k):
        rng = random.Random(relevant * 10 + k)
        for junta in (random_junta(relevant + 1, relevant, rng), Junta(relevant, (), (rng.randint(0, 1),))):
            decode = ReplicateMap(max(junta.k, 1), k).decode
            expected = tuple(junta.table[decode(m)] for m in range(1 << junta.k * k))
            assert reduce_junta_type_b(junta, ReplicateMap(junta.n, k)).table == expected


class TestTreeReduction:
    def test_leaf_count_power(self):
        tree = DecisionTree(2, Node(1, Leaf(0), Leaf(1)))
        assert reduce_tree_type_b(tree, ReplicateMap(2, 3)).leaf_count == 2 ** 3
        assert reduce_tree_type_b(tree, ReplicateMap(2, 5)).leaf_count == 2 ** 5

    def test_zero_budget_is_renaming(self):
        tree = DecisionTree(2, Node(1, Leaf(0), Node(2, Leaf(1), Leaf(0))))
        reduced = reduce_tree_type_b(tree, ReplicateMap(2, 1))
        for x in cube_points(2):
            assert reduced.evaluate(x) == tree.evaluate(x)

    def test_semantics_is_majority_over_copies(self):
        rng = random.Random(44)
        tree = random_tree(3, 4, rng)
        q0 = 1
        reduced = reduce_tree_type_b(tree, ReplicateMap(3, 2 * q0 + 1))
        for z in cube_points(9):
            copies = []
            for c in range(1, 2 * q0 + 2):
                # Copy c of source coordinate i is target coordinate (i - 1) * (2 q0 + 1) + c.
                copies.append(tree.evaluate(CubePoint.from_string(z.to_string()[c - 1::2 * q0 + 1])))
            assert reduced.evaluate(z) == int(2 * sum(copies) > len(copies))

    def test_leaf_cap_enforced(self):
        # 16 ** 5 stacked leaves at q0=2, far above TREE_LEAF_CAP.
        tree = random_tree(4, 16, random.Random(1))
        with pytest.raises(ValueError):
            reduce_tree_type_b(tree, ReplicateMap(4, 5))

    def test_even_copy_count_is_refused(self):
        # A tied block has no strict majority, as maj_poly refuses an even k too.
        tree = DecisionTree(2, Node(1, Leaf(0), Leaf(1)))
        with pytest.raises(ValueError) as exc:
            reduce_tree_type_b(tree, ReplicateMap(2, 2))
        assert exc.type is ValueError and str(exc.value) == "need an odd count for a strict majority, got 2"

    def test_verifier_passes(self):
        tree = random_tree(4, 4, random.Random(2))
        assert verify_reduction(make_reduction("tree", 4, q0=1), tree).passed


def _reference_stack_tree(tree: DecisionTree, phi: ReplicateMap, label_rule) -> DecisionTree:
    """The unshared builder: every root-to-leaf path of the stacked tree gets its own nodes."""

    def build(node, copy: int, outcomes: tuple[int, ...]):
        if isinstance(node, Leaf):
            collected = outcomes + (node.label,)
            if copy == phi.k:
                return Leaf(label_rule(collected))
            return build(tree.root, copy + 1, collected)
        return Node(
            phi.block_coordinates(node.var)[copy - 1],
            build(node.low, copy, outcomes),
            build(node.high, copy, outcomes),
        )

    return DecisionTree(phi.target_n, build(tree.root, 1, ()))


def _distinct_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += (node.low, node.high) if isinstance(node, Node) else ()
    return len(seen)


@pytest.mark.parametrize("n, q0", [(2, 1), (3, 1), (4, 2), (2, 3)])
@pytest.mark.parametrize(
    "rule, reference_rule",
    [
        (lambda k: ReplicateMap(1, k).decode, lambda outcomes: int(2 * sum(outcomes) > len(outcomes))),
        (lambda k: lambda outcomes: outcomes >> k - 1, lambda outcomes: outcomes[0]),
    ],
    ids=["majority", "first-copy"],
)
def test_shared_stacking_matches_the_unshared_builder(n, q0, rule, reference_rule):
    """The shared builder reads a leaf's copy outcomes as a k-bit mask, copy 1 highest; the reference keeps them as a
    tuple and takes an inline majority or the first copy."""
    phi = ReplicateMap(n, 2 * q0 + 1)
    rng = random.Random(n * 100 + q0)
    for _ in range(4):
        leaves = rng.randint(1, min(1 << n, int(reductions.TREE_LEAF_CAP ** (1 / phi.k))))
        tree = random_tree(n, leaves, rng)
        shared = reductions._stack_tree(tree, phi, rule(phi.k))
        reference = _reference_stack_tree(tree, phi, reference_rule)
        assert shared.root == reference.root
        assert shared.leaf_count == reference.leaf_count == tree.leaf_count ** phi.k
        if phi.target_n <= 16:
            assert all(shared.label(m) == reference.label(m) for m in range(1 << phi.target_n))
        assert _distinct_nodes(shared.root) <= ((1 << phi.k) - 1) * _distinct_nodes(tree.root)


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
            for x in cube_points(4):
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
        for x in cube_points(3):
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

    def test_samples_are_mapped_draw_by_draw(self):
        # s2 holds masks that s1 lacks, and both repeat masks: each draw keeps its own image and label.
        reduction = make_reduction("junta", 4, q0=1)
        s1 = LabeledSample(4, (3, 5, 3, 0), (1, 0, 1, 0))
        s2 = LabeledSample(4, (15, 3, 9, 15, 5), (1, 1, 0, 1, 0))
        seen = []

        def learner(m1, m2, oracle):
            seen.extend((m1, m2))
            return Junta(reduction.phi.target_n, (), (0,))

        simulate_pac_from_local(learner, reduction, s1, s2)
        encode = reduction.phi.encode
        assert [(m.masks, m.labels) for m in seen] == [(tuple(map(encode, s.masks)), s.labels) for s in (s1, s2)]

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
        for x in cube_points(4):
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
            with pytest.raises(DimensionMismatch, match=f"^sample has dimension {other_n}, expected 2$"):
                simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)

    @pytest.mark.parametrize("kind, other_n", [("dnf", 3), ("dnf", 9), ("junta", 5), ("junta", 7)])
    def test_synthesized_labels_refuse_a_sample_off_the_target_cube(self, kind, other_n):
        # dnf at n = 2 maps into 8 bits (k = 4), junta at n = 2, q0 = 1 into 6 (k = 3).
        reduction = make_reduction(kind, 2, q0=1) if kind == "junta" else make_reduction(kind, 2)
        target_n = reduction.phi.target_n
        good, other = LabeledSample(target_n, (0,), (1,)), LabeledSample(other_n, (5,), (0,))
        for samples in ((other,), (good, other), (other, good)):
            message = f"^mapped sample has dimension {other_n}, expected {target_n}$"
            with pytest.raises(DimensionMismatch, match=message):
                SynthesizedLabels(reduction, *samples)

    def test_sample_pipeline_builds_no_points(self, monkeypatch):
        f = DnfFormula(3, (Term.of(1),))
        reduction = make_reduction("dnf", 3)
        built = []
        original = CubePoint.__init__

        def counting(point, n, mask):
            built.append(mask)
            original(point, n, mask)

        monkeypatch.setattr(CubePoint, "__init__", counting)
        s1, s2 = self._samples(f, 3, 200, seed=900)
        assert built == [] and len(set(s1.masks + s2.masks)) < len(s1) + len(s2)
        oracle = LocalMQOracle.for_samples(f, 1, s1, s2)
        assert built == [] and oracle._anchors == set(s1.masks + s2.masks)
        learn_evident_dnf(s1, s2, oracle)
        reconstruct_term(s1.masks[0], oracle)
        assert built == []
        simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)
        assert built == []


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
    sources = cube_points(n)
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
    mapped = [(phi.apply(x), h.evaluate(x)) for x in cube_points(n) if subset >> x.mask & 1]
    oracle = _synthesized(reduction, mapped)
    for z in cube_points(target_n):
        if any((z.mask ^ image.mask).bit_count() <= q for image, _ in mapped):
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
    mapped = [(reduction.phi.apply(x), h.evaluate(x)) for x in cube_points(n)]
    labels = SynthesizedLabels(reduction, _mapped_sample(reduction, mapped))
    for z in wrong:
        with pytest.raises(DimensionMismatch):
            labels.evaluate(z)


def _nearest_sources(phi: ReplicateMap, z: int) -> list[int]:
    """Brute force: the source masks whose images are nearest to z, over all 2^n images."""
    distances = {x.mask: (phi.apply(x).mask ^ z).bit_count() for x in cube_points(phi.source_n)}
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
        return QReduction("spacing", kind, ReplicateMap(n, k), q, DnfFormula, lambda h: h)

    if k > (q if kind == "A" else 2 * q):
        assert build().q == q
    else:
        with pytest.raises(ValueError, match="needs k >"):
            build()


class TestMakeReduction:
    def test_kind_a_replicates_k_times(self):
        assert make_reduction("dnf", 3).phi == ReplicateMap(3, 9)
        r = make_reduction("dfa", 2, k=5)
        assert (r.kind, r.phi, r.q) == ("A", ReplicateMap(2, 5), 4)
        # k fixes kind A's budget at k-1; a q0 it would ignore is refused instead.
        with pytest.raises(ValueError, match=r"^dfa is a kind-A construction, whose budget is k-1; got q0=7$"):
            make_reduction("dfa", 2, k=5, q0=7)

    def test_kind_b_takes_odd_copies(self):
        r = make_reduction("tree", 3, q0=2)
        assert (r.kind, r.phi, r.q) == ("B", ReplicateMap(3, 5), 2)

    @pytest.mark.parametrize("name", [name for name in CONSTRUCTIONS if CONSTRUCTIONS[name].kind == "B"])
    def test_kind_b_refuses_a_replication_factor(self, name):
        # q0 fixes kind B's factor at 2*q0+1; a k it would ignore is refused instead.
        with pytest.raises(ValueError, match=f"{name} is a kind-B construction.*got k=9"):
            make_reduction(name, 3, k=9, q0=2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown construction"):
            make_reduction("cnf", 2)

    @pytest.mark.parametrize("name", list(CONSTRUCTIONS))
    def test_transform_refuses_another_dimension(self, name):
        # phi maps dimension 2; a dimension-3 concept must not come out over a wrong-sized cube.
        concept = CONSTRUCTIONS[name].example(3, random.Random(0))
        with pytest.raises(DimensionMismatch, match=f"^{name} concept has dimension 3, expected 2$"):
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
        with pytest.raises(ValueError, match="^flip checks: 107507008 exceeds the cap of 5000000$"):
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

    source_points = cube_points(n)
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
    ("dnf", 2, None), ("dnf", 3, None), ("dfa", 2, None), ("dfa", 3, None),
    ("junta", 4, 1), ("junta", 4, 2), ("junta", 6, 1),
    ("tree", 4, 1), ("tree", 4, 2), ("tree", 6, 1),
    ("poly", 4, 1), ("poly", 4, 2), ("ptf", 4, 1), ("ptf", 4, 2), ("ptf", 6, 2),
]


@lru_cache(maxsize=None)
def _suite_concepts() -> dict:
    """The concepts the reduction suite verifies at seed 0, keyed by (construction, map, q)."""
    verified: dict = {}

    def record(reduction, concept):
        verified.setdefault((reduction.name, reduction.phi, reduction.q), []).append(concept)
        return verify_reduction(reduction, concept)

    with patch.object(harness, "verify_reduction", record):
        run_reduction_suite(0)
    return verified


@pytest.mark.parametrize(
    "name, n, q0", MATRIX_SIZES, ids=[f"{c}-n{n}" + f"-q0={q}" * (c in KIND_B) for c, n, q in MATRIX_SIZES]
)
def test_verify_reduction_matches_reference_on_seeded_examples(name, n, q0):
    # The seeded CLI examples, then the suite's own fixtures for this row (its random DNFs,
    # automata, juntas and trees included).
    reduction = make_reduction(name, n, q0=q0)
    examples = [CONSTRUCTIONS[name].example(n, random.Random(seed)) for seed in range(3)]
    suite = _suite_concepts().get((name, reduction.phi, reduction.q), [])
    for concept in examples + suite:
        report = verify_reduction(reduction, concept).to_dict()
        assert report["passed"]
        assert report == _reference_verify(reduction, concept)


def test_every_suite_row_is_cross_checked():
    rows = {key for key in _suite_concepts() if key[0] in CONSTRUCTIONS}  # the controls carry other names
    sizes = {(name, r.phi, r.q) for name, n, q0 in MATRIX_SIZES for r in [make_reduction(name, n, q0=q0)]}
    assert rows <= sizes


def test_dfa_reduction_at_n4_checks_every_ball_point():
    # 16 images, each with the 64-bit target's 43,744 flips of weight 1..3.
    report = verify_reduction(make_reduction("dfa", 4), parity_dfa(4))
    assert report.passed
    assert (report.flip_radius, report.image_checked, report.ball_checked) == (3, 16, 699_904)


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
    # A control replaces only its reduction's reduce, so QReduction.transform still checks the
    # dimension: read on masks, the concept would answer anyway, and two controls used to return
    # a transformed concept and the third a plain ValueError.
    message = rf"^{broken.name} concept has dimension {concept.n}, expected 2$"
    with pytest.raises(DimensionMismatch, match=message):
        verify_reduction(broken, concept)
    with pytest.raises(DimensionMismatch, match=message):
        broken.transform(concept)


_OTHER_CLASS = [(a, b) for a in CONSTRUCTIONS for b in CONSTRUCTIONS if a != b]


@pytest.mark.parametrize("name, other", _OTHER_CLASS, ids=[f"{a}-given-{b}" for a, b in _OTHER_CLASS])
def test_transform_refuses_a_concept_of_another_construction(name, other):
    # Each reduce reads its own class's fields (a DnfFormula's terms, a SparsePoly's monomials), so another
    # class's concept used to raise a bare AttributeError from inside it, through verify_reduction too.
    reduction = make_reduction(name, 2)
    concept = CONSTRUCTIONS[other].example(2, random.Random(0))
    message = f"{name} reduction transforms a {CONSTRUCTIONS[name].concept.__name__}, got a {type(concept).__name__}"
    for call in (reduction.transform, lambda h: verify_reduction(reduction, h)):
        with pytest.raises(ValueError) as exc:
            call(concept)
        assert exc.type is ValueError and str(exc.value) == message


def test_negative_controls_keep_their_rows_concept_class():
    controls = {
        "dnf": corrupted_dnf_reduction_without_detector(2),
        "dfa": corrupted_dfa_reduction_stuck_simulator(2),
        "tree": corrupted_tree_reduction_first_copy(2, 1),
    }
    for row, broken in controls.items():
        assert broken.concept is CONSTRUCTIONS[row].concept
        with pytest.raises(ValueError, match=f"^{broken.name} reduction transforms a .*, got a SparsePoly$"):
            broken.transform(CONSTRUCTIONS["poly"].example(2, random.Random(0)))


def test_poly_reduction_is_checked_by_exact_value():
    # Doubling every coefficient keeps every sign, so only the exact values tell.
    shipped = make_reduction("poly", 2)

    def doubled(p: SparsePoly) -> SparsePoly:
        return shipped.transform(SparsePoly(p.n, {v: 2 * c for v, c in p.monomials.items()}))

    broken = replace(shipped, reduce=lambda h, phi: doubled(h))
    concept = SparsePoly(2, {frozenset({1}): Fraction(1, 2), frozenset(): Fraction(1, 3)})
    report = verify_reduction(broken, concept).to_dict()
    assert report["image_failures"] == 4 and report["ball_failures"] == report["ball_checked"]
    assert report["counterexamples"][0] == {"check": "image", "point": "------", "expected": "-1/6", "got": "-1/3"}
    assert report == _reference_verify(broken, concept)


BALL_ONLY_CONTROLS = [
    ("poly", 4, 1, CONSTRUCTIONS["poly"].example(4, random.Random(0))),
    ("poly", 4, 2, SparsePoly(4, {frozenset({1, 2}): 1, frozenset({3}): Fraction(-2, 3), frozenset(): 1})),
    ("ptf", 4, 1, CONSTRUCTIONS["ptf"].example(4, random.Random(0))),
    ("ptf", 6, 2, SparsePtf(SparsePoly(6, {frozenset({j}): 1 for j in range(1, 7)}), 0)),
]


@pytest.mark.parametrize(
    "name, n, q0, concept", BALL_ONLY_CONTROLS, ids=[f"{c}-n{n}-q0={q}" for c, n, q, _ in BALL_ONLY_CONTROLS]
)
def test_first_copy_for_maj_poly_fails_only_on_the_ball(name, n, q0, concept, monkeypatch):
    # Each block's first copy agrees with its majority on every image, and a flip of it
    # moves the value, so only the bit-sliced ball check can catch the substitution.
    monkeypatch.setattr(reductions, "maj_poly", lambda k: SparsePoly(k, {frozenset({1}): 1}))
    broken = make_reduction(name, n, q0=q0)
    report = verify_reduction(broken, concept).to_dict()
    assert report["image_failures"] == 0 < report["ball_failures"] < report["ball_checked"]
    # Kind-B balls are disjoint and all of one size, so more failures than one ball holds span images.
    assert report["ball_failures"] > report["ball_checked"] >> n
    assert len(report["counterexamples"]) == 10
    assert report == _reference_verify(broken, concept)


def test_verify_reduction_refuses_transform_into_another_dimension():
    identity = replace(make_reduction("dnf", 2), reduce=lambda h, phi: h)
    with pytest.raises(DimensionMismatch):
        verify_reduction(identity, DnfFormula(2, (Term.of(1),)))
    # The refusal is the transform's own, so no other caller gets the source-dimension concept back.
    with pytest.raises(DimensionMismatch, match=r"^transformed concept has dimension 2, expected 8$"):
        identity.transform(DnfFormula(2, (Term.of(1),)))


@pytest.mark.parametrize("seed", [0, 1])
def test_reduction_suite_calls_what_perfbench_replaces(seed, monkeypatch):
    # perfbench times its items by replacing these names in lmqlab.harness, so the
    # suite must call them there: one verify per row, then the controls, and one
    # simulation per audit.
    verified, simulated = [], []

    def verify(reduction, concept):
        verified.append(reduction.name)
        return verify_reduction(reduction, concept)

    def simulate(*args):
        simulated.append(args[1].name)
        return simulate_pac_from_local(*args)

    monkeypatch.setattr(harness, "verify_reduction", verify)
    monkeypatch.setattr(harness, "simulate_pac_from_local", simulate)
    report = run_reduction_suite(seed)
    shipped = [c["name"] for c in report.constructions]
    assert len(shipped) == 19
    assert verified == shipped + ["dnf-no-detector", "dfa-stuck-simulator", "tree-first-copy"]
    assert simulated == ["dnf", "junta", "ptf"]
