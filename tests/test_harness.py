import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from lmqlab.concepts import (
    DnfFormula,
    Junta,
    Term,
    parity_dfa,
    random_dfa,
    random_dnf,
    random_junta,
    random_tree,
)
from lmqlab.cube import enumerate_cube
from lmqlab.distributions import UniformCube
from lmqlab.evident import satisfies_evidently
from lmqlab.harness import (
    ExperimentConfig,
    ReductionSuiteReport,
    _audit_simulation,
    _evident_bitsets,
    _flip_table,
    derive_seed,
    doubled_tree_family,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
)
from lmqlab.reductions import make_reduction


def small_config(**overrides):
    defaults = dict(
        name="tiny",
        family=opposite_literal_family(4, 5),
        trials=3,
        base_seed=77,
        epsilon=0.2,
        m1=400,
        m2=1500,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_derive_seed_is_stable_and_labeled():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_random_tree_has_exact_leaf_count():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        leaves = rng.randint(1, 1 << n)
        tree = random_tree(n, leaves, rng)
        assert tree.leaf_count == leaves


def test_generators_are_seed_deterministic():
    a = random_dnf(5, 3, 3, random.Random(9))
    b = random_dnf(5, 3, 3, random.Random(9))
    assert a == b
    assert random_dfa(4, 3, random.Random(2)).delta == random_dfa(4, 3, random.Random(2)).delta
    assert random_junta(5, 2, random.Random(4)) == random_junta(5, 2, random.Random(4))


def test_learning_suite_replays_byte_identically():
    first = run_learning_suite(small_config())
    second = run_learning_suite(small_config())
    assert first.canonical_json() == second.canonical_json()


def test_learning_suite_success_arithmetic():
    report = run_learning_suite(small_config())
    assert report.success_count == sum(1 for t in report.trials if t.success)
    assert report.success_count <= len(report.trials)
    assert report.config["threshold"] == 2  # floor(3 * 3 / 4)


def test_learning_suite_trials_individually_seeded():
    report = run_learning_suite(small_config())
    seeds = [t.seed for t in report.trials]
    assert len(set(seeds)) == len(seeds)
    assert seeds[0] == derive_seed(77, "trial", 0)


def test_learning_suite_small_run_succeeds():
    report = run_learning_suite(small_config())
    assert report.passed
    for t in report.trials:
        assert t.max_locality <= 1
        assert t.estimator == "exact"


def test_doubled_family_queries_at_distance_exactly_one():
    cfg = small_config(family=doubled_tree_family(3, 4), m1=200, m2=400)
    report = run_learning_suite(cfg)
    for t in report.trials:
        if t.queries:
            assert set(t.distance_histogram) == {1}


def test_trial_errors_carry_context():
    def broken_family(seed):
        raise ValueError("boom")

    cfg = small_config(family=broken_family, trials=1)
    with pytest.raises(RuntimeError, match="trial 0"):
        run_learning_suite(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(epsilon=1.5)


def test_opposite_family_instances_are_fully_evident():
    family = opposite_literal_family()
    from lmqlab.evident import evidence_report
    from fractions import Fraction

    for seed in range(5):
        formula, dist = family(seed)
        assert evidence_report(formula, dist, beta=Fraction(1)).verdict


def test_corpus_small_run_is_clean():
    report = run_reconstruction_corpus(count=40, base_seed=6)
    assert report.formulas == 40
    assert report.passed
    assert report.biconditional_failures == 0
    assert report.recon_failures == 0
    assert report.recon_checked == report.evident_points
    assert set(report.locality_histogram) <= {1}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name, family, m2, trials, digest",
    [
        (
            "doubled-tree", doubled_tree_family(4, 8, max_leaves=16), 50000, 5,
            "51554e301b5a917d4aeb21d6fb6b264264f30d820f6887dd0f7593c8ff67ee3d",
        ),
        (
            "opposite-literal", opposite_literal_family(4, 8), 50000, 5,
            "40bbf48f4f132e0a36fc0b2e4bd567b687857e59086ce94c56f660431abf0435",
        ),
        (
            # n = 27: Monte Carlo loss, and more distinct anchors than a 1-ball, so the oracle walks.
            "opposite-literal-wide", opposite_literal_family(24, 32), 20000, 1,
            "94acc4e9c9e05efc326522d7af86d2dd938cb7856c39dd53d8955635e788300a",
        ),
    ],
    ids=["doubled-tree", "opposite-literal", "opposite-literal-wide"],
)
def test_learning_suite_digest_is_pinned(name, family, m2, trials, digest):
    cfg = ExperimentConfig(name=name, family=family, trials=trials, base_seed=42, epsilon=0.1, m1=5000, m2=m2)
    assert _sha256(run_learning_suite(cfg).canonical_json()) == digest


def test_corpus_digest_is_pinned():
    report = run_reconstruction_corpus(200)
    digest = "9a86d8b5f7e7bc1422d78e74ec72b1523f7b187ce20303a870d9cf61e82cb1f7"
    assert _sha256(json.dumps(report.to_dict(), sort_keys=True)) == digest


def test_corpus_deterministic():
    a = run_reconstruction_corpus(count=15, base_seed=8)
    b = run_reconstruction_corpus(count=15, base_seed=8)
    assert a.to_dict() == b.to_dict()


def test_reduction_suite_passes_and_reports_shape():
    report = run_reduction_suite(base_seed=1)
    d = report.to_dict()
    assert d["passed"] is True
    names = {c["name"] for c in d["constructions"]}
    assert names == {"dnf", "dfa", "junta", "tree", "poly", "ptf"}
    assert d["simulation_queries"] >= 10_000
    assert d["simulation_mismatches"] == 0
    assert d["uniqueness_errors"] == 0
    assert len(d["negative_controls"]) == 3
    assert all(c["detected"] for c in d["negative_controls"])
    assert all(c["counterexamples"] for c in d["negative_controls"])


class _NeighbourShifted:
    """Answers what the wrapped concept says at the point with its last coordinate flipped."""

    def __init__(self, inner):
        self.n, self.inner = inner.n, inner

    def label(self, mask):
        return self.inner.label(mask ^ 1)


def test_simulation_audit_counts_a_neighbour_shifted_transform():
    # The suite's audit fixtures ignore the last source variable, so a transform
    # shifted onto the last target coordinate agrees with them wherever the
    # learner asks. A parity over every source variable does not.
    honest = make_reduction("junta", 4, q0=1)
    shifted = dataclasses.replace(honest, transform=lambda h: _NeighbourShifted(honest.transform(h)))
    parity = Junta(4, (1, 2, 3, 4), tuple(bin(i).count("1") % 2 for i in range(16)))
    counts = {}
    for name, reduction in (("honest", honest), ("shifted", shifted)):
        report = ReductionSuiteReport()
        _audit_simulation(report, reduction, parity, UniformCube(4), 200, 200, derive_seed(0, "sim-parity"))
        counts[name] = (report.simulation_queries, report.simulation_mismatches, report.uniqueness_errors)
    assert counts["honest"][1:] == (0, 0)
    queries, mismatches, errors = counts["shifted"]
    assert queries == counts["honest"][0] and 0 < mismatches < queries and errors == 0


def test_parity_dfa_counts_minus_symbols():
    a = parity_dfa(5)
    for x in enumerate_cube(5):
        assert a.evaluate(x) == sum(1 for b in x.bits if b == -1) % 2


# Whole trials on the Monte Carlo path, pinned so that a drift in the
# distance histogram or the estimated loss shows. Both have more distinct
# anchors than a 1-ball has points, so the oracle walks the ball; the
# opposite-literal trial at n=25 misses a term, so its loss is not 0.
MC_TRIALS = [
    (
        doubled_tree_family(11, 11, max_leaves=8), 300, 600,
        {
            "distance_histogram": {"1": 1782}, "estimator": "mc", "index": 0, "loss": "0",
            "loss_float": 0.0, "max_locality": 1, "n": 22, "positives": 81, "queries": 1782,
            "seed": 6011654802197052586, "success": True, "terms_added": 1, "terms_pruned": 0,
        },
    ),
    (
        opposite_literal_family(24, 32), 4, 60,
        {
            "distance_histogram": {"1": 75}, "estimator": "mc", "index": 0, "loss": "6209/50000",
            "loss_float": 0.12418, "max_locality": 1, "n": 25, "positives": 3, "queries": 75,
            "seed": 6011654802197052586, "success": True, "terms_added": 3, "terms_pruned": 0,
        },
    ),
]


def test_monte_carlo_estimator_above_enumeration_bound():
    for family, m1, m2, expected in MC_TRIALS:
        report = run_learning_suite(small_config(family=family, trials=1, m1=m1, m2=m2))
        trial = report.trials[0]
        assert trial.estimator == "mc"
        assert trial.canonical_dict() == expected


def test_point_mass_trial_has_zero_loss():
    from fractions import Fraction

    from lmqlab.cube import CubePoint
    from lmqlab.distributions import FiniteSupport

    target = DnfFormula(3, (Term.of(1, 2),))
    dist = FiniteSupport(3, ((CubePoint.from_string("+++"), Fraction(1)),))
    cfg = small_config(family=lambda seed: (target, dist), trials=1, m1=20, m2=20)
    report = run_learning_suite(cfg)
    trial = report.trials[0]
    assert trial.loss == 0 and trial.success
    assert trial.terms_added == 1


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(0, 5), width=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_truth_table_kernel_matches_pointwise_code(n, d, width, seed):
    # The corpus's bitsets against satisfied_indices, satisfies_evidently and CubePoint.flip, on every point.
    formula = random_dnf(n, d, width, random.Random(seed))
    sat, h_table, evident = _evident_bitsets(formula)
    tables = sat + [h_table]
    flipped = {j: [_flip_table(t, n, j) for t in tables] for j in range(1, n + 1)}
    for x in enumerate_cube(n):
        hit = formula.satisfied_indices(x)
        assert [(t >> x.mask) & 1 for t in sat] == [int(i in hit) for i in range(d)]
        assert (h_table >> x.mask) & 1 == formula.evaluate(x)
        for i, ev in enumerate(evident):
            assert (ev >> x.mask) & 1 == satisfies_evidently(formula, i, x)
        for j, row in flipped.items():
            y = x.flip(j).mask
            assert [(t >> x.mask) & 1 for t in row] == [(t >> y) & 1 for t in tables]
