"""End-to-end acceptance checks for every shipped guarantee.

Each test prints one "[acceptance] ...: PASS/FAIL" line; run with
``pytest tests/test_acceptance.py -v -s`` to watch them. Expensive suites
run once per session and are shared across the checks they back.
"""

import math
import time
from contextlib import contextmanager

import pytest

from lmqlab.harness import (
    ExperimentConfig,
    doubled_tree_family,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
)
from lmqlab.learner import learn_evident_dnf, plan_samples
from lmqlab.oracle import LocalityViolation, LocalMQOracle, draw_training_set
from lmqlab.reductions import build_block_simulator, reduce_tree_type_b
from lmqlab.concepts import DecisionTree, Leaf, Node, parity_dfa
from lmqlab.cube import ReplicateMap


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def corpus():
    return run_reconstruction_corpus(count=1000, base_seed=20260811)


@pytest.fixture(scope="module")
def learning():
    results = {}
    for name, family in (
        ("doubled-tree", doubled_tree_family(4, 8, max_leaves=16)),
        ("opposite-literal", opposite_literal_family(4, 8)),
    ):
        cfg = ExperimentConfig(
            name=name,
            family=family,
            trials=20,
            base_seed=42,
            epsilon=0.1,
            m1=5000,
            m2=50000,
            success_threshold=15,
        )
        start = time.perf_counter()
        report = run_learning_suite(cfg)
        results[name] = (report, time.perf_counter() - start)
    return results


@pytest.fixture(scope="module")
def reductions():
    start = time.perf_counter()
    report = run_reduction_suite(base_seed=3)
    return report, time.perf_counter() - start


def test_flip_biconditional_corpus(corpus):
    with criterion("flip biconditional over 1000-formula corpus, zero failures, <30s"):
        assert corpus.formulas == 1000
        assert corpus.evident_points > 0
        assert corpus.biconditional_failures == 0
        assert corpus.reveal_failures == 0
        assert corpus.crosscheck_mismatches == 0
        assert corpus.seconds_discovery < 30.0


def test_term_reconstruction_exact_on_corpus(corpus):
    with criterion("term reconstruction exact on every evident corpus point"):
        assert corpus.recon_checked == corpus.evident_points
        assert corpus.recon_failures == 0


def test_locality_discipline(corpus, learning):
    with criterion("all learner queries 1-local; zero-budget oracle rejects"):
        # Reconstruction oracles log every query at distance exactly 1.
        assert set(corpus.locality_histogram) == {1}
        for report, _ in learning.values():
            for trial in report.trials:
                assert trial.max_locality <= 1
        # Image-supported training data leaves no distance-0 collisions.
        doubled, _ = learning["doubled-tree"]
        for trial in doubled.trials:
            if trial.queries:
                assert set(trial.distance_histogram) == {1}
        # A zero-budget oracle must reject the learner's first query.
        target, dist = doubled_tree_family(3, 4)(0)
        s1 = s2 = None
        for seed in range(100):
            candidate = draw_training_set(dist, target, 30, seed)
            if 1 in candidate.labels:
                s1 = candidate
                s2 = draw_training_set(dist, target, 30, seed + 1000)
                break
        assert s1 is not None
        oracle = LocalMQOracle.for_samples(target, 0, s1, s2)
        with pytest.raises(LocalityViolation):
            learn_evident_dnf(s1, s2, oracle)
        assert oracle.stats().query_count == 0


def test_learning_families_reach_success_rate(learning):
    with criterion("20 seeded trials per family: >=15 with exact loss < 0.1, <2min each"):
        for name, (report, elapsed) in learning.items():
            assert report.success_count >= 15, name
            assert elapsed < 120.0, name
            assert all(t.estimator == "exact" for t in report.trials)


def test_sample_planner_arithmetic():
    with criterion("sample-size planner matches the bounds exactly"):
        plan = plan_samples(2, 0.5)
        m1 = math.ceil((32 * 2 ** 3 / 0.5) * math.log(32 * 2 ** 2 / 0.5))
        assert plan.m1 == m1 == 2840
        assert 32 * m1 / 0.5 == 181760
        assert plan.m2 == math.ceil(181760 * math.log(181760))


def test_reduction_matrix(reductions):
    report, elapsed = reductions
    with criterion("reduction matrix verifies on all constructions, <1min"):
        assert all(c["passed"] for c in report.constructions)
        kinds = {c["name"] for c in report.constructions}
        assert kinds == {"dnf", "dfa", "junta", "tree", "poly", "ptf"}
        assert elapsed < 60.0


def test_size_bounds_exact(reductions):
    report, _ = reductions
    with criterion("construction size bounds hold exactly"):
        assert all(c["passed"] for c in report.size_checks)
        simulator = build_block_simulator(parity_dfa(3), ReplicateMap(3, 9))
        assert simulator.num_states == 2 * 9
        two_leaf = DecisionTree(2, Node(1, Leaf(0), Leaf(1)))
        assert reduce_tree_type_b(two_leaf, ReplicateMap(2, 3)).leaf_count == 8


def test_synthesized_answers_match_ground_truth(reductions):
    report, _ = reductions
    with criterion("query synthesis: >=10^4 answers, zero mismatches, uniqueness holds"):
        assert report.simulation_queries >= 10_000
        assert report.simulation_mismatches == 0
        assert report.uniqueness_errors == 0


def test_negative_controls_detected(reductions):
    report, _ = reductions
    with criterion("all three corrupted constructions flagged with counterexamples"):
        assert len(report.negative_controls) == 3
        for control in report.negative_controls:
            assert control["detected"], control["name"]
            assert control["counterexamples"], control["name"]
