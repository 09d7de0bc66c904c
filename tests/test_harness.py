import dataclasses
import random
import re
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import goldens
from cubes import cube_points
from lmqlab.concepts import (
    DnfFormula,
    Junta,
    MaskConcept,
    SparsePoly,
    Term,
    parity_dfa,
    random_dfa,
    random_dnf,
    random_junta,
    random_tree,
)
from lmqlab import distributions, evident, harness, learner, oracle, reductions
from lmqlab.cube import ENUMERATION_CAP, CubePoint, ReplicateMap
from lmqlab.distributions import FiniteSupport, UniformCube, pushforward
from lmqlab.formats import canonical_json
from lmqlab.harness import (
    ExperimentConfig,
    ReductionSuiteReport,
    _audit_simulation,
    derive_seed,
    doubled_tree_family,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
    run_trial,
)
from lmqlab.oracle import LocalMQOracle
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("trials", True, "trial count must be at least 1, got True"),
        ("trials", 2.5, "trial count must be at least 1, got 2.5"),
        ("m1", True, "sample count must be non-negative, got True"),
        ("m1", 2.5, "sample count must be non-negative, got 2.5"),
        ("m2", False, "sample count must be non-negative, got False"),
        ("q", True, "locality budget must be non-negative, got True"),
        ("q", 1.0, "locality budget must be non-negative, got 1.0"),
    ],
    ids=["trials-bool", "trials-float", "m1-bool", "m1-float", "m2-bool", "q-bool", "q-float"],
)
def test_counts_that_are_not_ints_rejected(field, value, message):
    # A bool trial count printed "trials": true with threshold 0, so a suite passed with no successes.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_config(**{field: value})


@pytest.mark.parametrize("threshold", [-1, 4, True, 1.5])
def test_success_threshold_outside_trial_count_rejected(threshold):
    with pytest.raises(ValueError, match=f"success threshold must lie in 0..3, got {threshold}"):
        small_config(trials=3, success_threshold=threshold)
    for edge in (0, 3):
        assert small_config(trials=3, success_threshold=edge).threshold == edge


def test_default_threshold_is_three_quarters_of_the_trials_and_at_least_one():
    # At one trial, 3 // 4 = 0 passed a suite with no success.
    assert [small_config(trials=t).threshold for t in range(1, 6)] == [1, 1, 2, 3, 3]


def test_opposite_family_instances_are_fully_evident():
    family = opposite_literal_family()
    from lmqlab.evident import evidence_report
    from fractions import Fraction

    for seed in range(5):
        formula, dist = family(seed)
        assert evidence_report(formula, dist, beta=Fraction(1)).passed


def test_corpus_small_run_is_clean():
    report = run_reconstruction_corpus(count=40, base_seed=6)
    assert report.formulas == 40
    assert report.passed
    assert report.biconditional_failures == 0
    assert report.recon_failures == 0
    assert report.recon_checked == report.evident_points
    assert set(report.locality_histogram) <= {1}


def test_corpus_builds_a_cube_point_only_for_a_failure_note(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"CubePoint{args} built on the corpus's passing path")

    monkeypatch.setattr(harness, "CubePoint", refuse)
    report = run_reconstruction_corpus(count=40, base_seed=6)
    assert report.passed and report.recon_checked == report.evident_points > 0


def test_corpus_notes_a_wrong_reconstruction_as_signed_literals(monkeypatch):
    real = harness.reconstruct_term
    formulas = []

    def swapped(x, oracle):
        formulas.append(oracle.target)
        pos, neg = real(x, oracle)
        return neg, pos

    monkeypatch.setattr(harness, "reconstruct_term", swapped)
    report = run_reconstruction_corpus(count=1)
    assert report.recon_failures == report.recon_checked > 0 and not report.passed
    note = report.failures[0]
    assert note["kind"] == "reconstruction"
    assert note["got"] == str(sorted(-v for v in formulas[0].terms[note["term"]].signed()))


def test_wide_learning_suite_digest_is_pinned():
    # n = 27: Monte Carlo loss, and more distinct anchors than a 1-ball has points.
    cfg = ExperimentConfig(
        name="opposite-literal-wide", family=opposite_literal_family(24, 32),
        trials=1, base_seed=42, epsilon=0.1, m1=5000, m2=20000,
    )
    goldens.assert_pinned("learning-wide-1trial-seed42", run_learning_suite(cfg).canonical_json())


def test_doubled_tree_family_shares_one_image_distribution_per_dimension():
    family, other = doubled_tree_family(4, 8), doubled_tree_family(4, 8)
    images = {}
    for seed in range(60):
        target, dist = family(seed)
        n = target.n // 2
        assert dist is images.setdefault(n, dist)
        assert other(seed)[1] is not dist
    assert sorted(images) == [4, 5, 6, 7, 8]
    for n, dist in images.items():
        assert dist == pushforward(UniformCube(n), ReplicateMap(n, 2))
        assert dist.n == 2 * n


def _learning_and_corpus_results():
    trials = []
    for family in (opposite_literal_family(24, 32), doubled_tree_family(4, 8)):
        target, dist = family(derive_seed(13, "instance"))
        run, loss, estimator = run_trial(target, dist, 300, 600, 1, 1)
        trials.append((dataclasses.replace(run, phase1_seconds=0, phase2_seconds=0), loss, estimator))
    # One kind-A and one kind-B query synthesis audit, as run_reduction_suite runs them.
    audits = []
    for name, concept in (("dnf", DnfFormula(3, (Term.of(1),))), ("junta", Junta(4, (1, 2), (0, 1, 1, 0)))):
        report = ReductionSuiteReport()
        reduction = make_reduction(name, concept.n)
        _audit_simulation(report, reduction, concept, UniformCube(concept.n), 200, derive_seed(13, name))
        audits.append((reduction.kind, report.to_dict()))
    return trials, run_reconstruction_corpus(count=5).to_dict(), audits


def test_learning_and_corpus_never_reach_the_anchor_scan(monkeypatch):
    # Reconstruction asks one-flip batches around anchors, which need no scan;
    # a change that sends learning queries through ask must measure the scan.
    expected = _learning_and_corpus_results()
    assert expected[0][0][0].formula.n >= 24
    assert all(run.oracle_stats.query_count > 0 for run, _, _ in expected[0])
    assert [kind for kind, _ in expected[2]] == ["A", "B"]
    assert all(audit["simulation_queries"] > 0 and audit["passed"] for _, audit in expected[2])

    def refuse(self, mask, times=1):
        raise AssertionError(f"ask({mask}, {times}) reached the anchor scan")

    monkeypatch.setattr(LocalMQOracle, "ask", refuse)
    assert _learning_and_corpus_results() == expected


class _UnwalkableDraws:
    """A stand-in for a sample's masks that has a length but refuses to be walked or indexed."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        raise AssertionError("a reader walked the draws of s2")

    def __getitem__(self, index):
        raise AssertionError(f"a reader indexed draw {index} of s2")


def test_learn_dense_trial_reads_only_the_cover_of_s2(monkeypatch):
    # Trial 0 of learn-dense's doubled-tree suite (m1 5000, m2 50000, drawn by index): the oracle build and phase 2
    # read s2's cover, its at most 256 support points; a reader that walks the 50,000 draws again fails here.
    trial_seed = derive_seed(42, "trial", 0)
    target, dist = doubled_tree_family(4, 8)(derive_seed(trial_seed, "instance"))
    plain = []

    def draw_and_keep(*args):
        plain.append(oracle.draw_training_set(*args))
        return plain[-1]

    monkeypatch.setattr(harness, "draw_training_set", draw_and_keep)
    expected, loss, estimator = run_trial(target, dist, 5000, 50000, 1, trial_seed)
    # Phase 1 counts s1's draws, so it builds s1's masks tuple; nothing in the trial builds s2's.
    s1, s2 = plain
    assert "masks" in s1.__dict__ and "masks" not in s2.__dict__
    cap = LocalMQOracle.for_samples(target, 1, s1, s2).query_cap
    assert cap == oracle.QUERY_BUDGET_FACTOR * target.n * (5000 + 50000) and "masks" not in s2.__dict__
    draws = []

    def draw_then_hide_s2(dist_, target_, m, seed):
        drawn = oracle.draw_training_set(dist_, target_, m, seed)
        if seed == derive_seed(trial_seed, "s2"):
            assert len(drawn.cover[0]) <= 256 < m
            drawn.__dict__["masks"] = _UnwalkableDraws(m)
        draws.append(drawn)
        return drawn

    monkeypatch.setattr(harness, "draw_training_set", draw_then_hide_s2)
    run, *rest = run_trial(target, dist, 5000, 50000, 1, trial_seed)
    assert type(draws[1].masks) is _UnwalkableDraws
    assert expected.terms_added > 0 and 0 in draws[1].cover[1]  # phase 2 has candidates and negatives to test
    zeroed = {"phase1_seconds": 0, "phase2_seconds": 0}
    assert (dataclasses.replace(run, **zeroed), *rest) == (dataclasses.replace(expected, **zeroed), loss, estimator)


def test_timings_never_enter_the_corpus_report():
    report = run_reconstruction_corpus(count=3)
    report.seconds_discovery, report.seconds_reconstruct = 1.5, 2.5
    assert not any("seconds" in key for key in report.to_dict())
    assert report.to_dict() == run_reconstruction_corpus(count=3).to_dict()


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_each_canonical_renderer_states_its_fields_less_the_named_exclusions_plus_its_derived_keys():
    # A field added later reaches canonical output only by editing these sets.
    suite = run_learning_suite(small_config(trials=1))
    corpus, reductions_report = run_reconstruction_corpus(count=2), ReductionSuiteReport()
    verified = reductions.verify_reduction(make_reduction("dnf", 2), DnfFormula(2, (Term.of(1),)))
    evidence = evident.evidence_report(DnfFormula(2, (Term.of(1, 2), Term.of(-1, -2))), UniformCube(2))
    rendered = [
        (suite.config, ExperimentConfig, {"family", "success_threshold"}, {"threshold"}),
        (suite.trials[0].to_dict(), harness.TrialReport, set(), {"loss_float"}),
        (suite.to_dict(), harness.SuiteReport, set(), {"success_count", "trial_count", "passed"}),
        (corpus.to_dict(), harness.CorpusReport, {"seconds_discovery", "seconds_reconstruct"}, {"passed"}),
        (reductions_report.to_dict(), ReductionSuiteReport, set(), {"passed"}),
        (verified.to_dict(), reductions.ReductionReport, set(), {"passed"}),
        (evidence.terms[0].to_dict(), evident.TermEvidence, set(), set()),
        (evidence.to_dict(), evident.EvidenceReport, set(), {"verdict"}),
    ]
    for canonical, cls, excluded, derived in rendered:
        assert set(canonical) == _field_names(cls) - excluded | derived, cls.__name__
    trial = suite.trials[0].to_dict()
    assert trial["loss"] == str(suite.trials[0].loss) and trial["loss_float"] == float(suite.trials[0].loss)
    assert all(type(k) is str for k in (*trial["distance_histogram"], *corpus.to_dict()["locality_histogram"]))
    term = evidence.to_dict()["terms"][0]
    assert (term["p_satisfied"], term["p_evident"], term["conditional"]) == ("1/4", "1/4", "1")
    assert verified.to_dict()["counterexamples"] == verified.counterexamples == []


def test_a_two_digit_histogram_key_is_stringified_before_json_sorts_it():
    trial = dataclasses.replace(run_learning_suite(small_config(trials=1)).trials[0], distance_histogram={2: 3, 10: 1})
    assert trial.to_dict()["distance_histogram"] == {"2": 3, "10": 1}
    assert '"distance_histogram": {"10": 1, "2": 3}' in canonical_json(trial.to_dict())


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


class _NeighbourShifted(MaskConcept):
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
    shifted = dataclasses.replace(honest, reduce=lambda h, phi: _NeighbourShifted(honest.transform(h)))
    parity = Junta(4, (1, 2, 3, 4), tuple(bin(i).count("1") % 2 for i in range(16)))
    counts = {}
    for name, reduction in (("honest", honest), ("shifted", shifted)):
        report = ReductionSuiteReport()
        _audit_simulation(report, reduction, parity, UniformCube(4), 200, derive_seed(0, "sim-parity"))
        counts[name] = (report.simulation_queries, report.simulation_mismatches, report.uniqueness_errors)
    assert counts["honest"][1:] == (0, 0)
    queries, mismatches, errors = counts["shifted"]
    assert queries == counts["honest"][0] and 0 < mismatches < queries and errors == 0


def test_majority_expansion_check_fails_on_a_perturbed_coefficient(monkeypatch):
    shipped = harness.maj_poly

    def perturbed(k):
        monomials = dict(shipped(k).monomials)
        if k == 5:  # majority is odd, so its constant is 0; raised, every value is 1/64 high and only == can see it
            monomials[frozenset()] = monomials.get(frozenset(), 0) + Fraction(1, 64)
        return SparsePoly(k, monomials)

    monkeypatch.setattr(harness, "maj_poly", perturbed)
    report = run_reduction_suite(base_seed=0)
    rows = {row["check"]: row["passed"] for row in report.size_checks}
    assert rows.pop("majority expansion k=5") is False
    assert all(rows.values()) and not report.passed and report.to_dict()["passed"] is False


def test_parity_dfa_counts_minus_symbols():
    a = parity_dfa(5)
    for x in cube_points(5):
        assert a.evaluate(x) == sum(1 for b in x.bits if b == -1) % 2


# Whole trials above the cube's exact-loss cutoff, pinned so that a drift in
# the distance histogram or the loss shows. Both have more distinct anchors
# than a 1-ball has points. The doubled-tree trial at n=22 draws from its
# image, a finite support, so its loss is exact; the opposite-literal trial
# at n=25 draws from the cube, so its loss is a Monte Carlo estimate, and it
# misses a term, so that loss is not 0.
WIDE_TRIALS = [
    (
        doubled_tree_family(11, 11, max_leaves=8), 300, 600,
        {
            "distance_histogram": {"1": 1782}, "estimator": "exact", "index": 0, "loss": "0",
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


def test_trials_above_the_exact_loss_cutoff():
    for family, m1, m2, expected in WIDE_TRIALS:
        report = run_learning_suite(small_config(family=family, trials=1, m1=m1, m2=m2))
        assert report.trials[0].to_dict() == expected


def test_run_trial_sums_a_finite_support_exactly_at_any_n():
    # Four points at n = 24; s1 misses the one point of the second term, of mass 1/64.
    target = DnfFormula(24, (Term.of(1, -2), Term.of(3, 4, 24)))
    points = {"+" + "-" * 23: Fraction(1, 2), "--++" + "-" * 19 + "+": Fraction(1, 64),
              "-+" + "-" * 22: Fraction(15, 64), "++" + "-" * 22: Fraction(1, 4)}
    support = FiniteSupport(24, tuple((CubePoint.from_string(p).mask, mass) for p, mass in points.items()))
    run, loss, estimator = run_trial(target, support, 20, 200, 1, 2)
    assert (estimator, loss, len(run.formula.terms)) == ("exact", Fraction(1, 64), 1)
    assert run_trial(target, UniformCube(24), 20, 200, 1, 2)[2] == "mc"


class DrawReached(Exception):
    """Raised by a patched ``sample`` or ``sample_indices``: the trial got as far as a draw."""


def _refusing_draws():
    """Both draw paths of ``draw_training_set`` patched to raise ``DrawReached``."""

    def refuse(*args, **kwargs):
        raise DrawReached

    return patch.multiple("lmqlab.oracle", sample=refuse, sample_indices=refuse)


CAP = 1 << ENUMERATION_CAP
_SEED_MESSAGE = "seed must be a non-negative int, as every derived seed is, got {!r}"


def _trial(n, m1=10, m2=10, q=1, seed=0):
    return run_trial(DnfFormula(n, (Term.of(1, -2),)), UniformCube(n), m1, m2, q, seed)


@pytest.mark.parametrize("n", [4, 12], ids=["sample_indices", "sample"])
@pytest.mark.parametrize("seed", [-1, True, 2.0], ids=["negative", "bool", "float"])
def test_run_trial_refuses_a_bad_seed_before_any_draw(n, seed):
    # The one trial seed derives s1, s2 and the loss; a seed no suite derives is refused before s1 is drawn.
    with _refusing_draws(), pytest.raises(ValueError) as exc:
        _trial(n, seed=seed)
    assert exc.type is ValueError and str(exc.value) == _SEED_MESSAGE.format(seed)


@pytest.mark.parametrize("n", [4, 12], ids=["sample_indices", "sample"])
@pytest.mark.parametrize("m1, m2", [(CAP - 9, 10), (1, CAP), (99999999999, 1)], ids=["just-over", "m2-over", "huge"])
def test_run_trial_refuses_sizes_over_the_desk_scale_cap_before_any_draw(n, m1, m2):
    message = f"sample sizes m1 + m2: {m1 + m2} exceeds the cap of {CAP}"
    with _refusing_draws(), pytest.raises(ValueError) as exc:
        _trial(n, m1, m2)
    assert exc.type is ValueError and str(exc.value) == message
    with _refusing_draws(), pytest.raises(DrawReached):  # at the cap, and with seed 0, the trial draws
        _trial(n, CAP - 10, 10, seed=0)


@pytest.mark.parametrize("n, roles", [(4, ("s1", "s2")), (28, ("s1", "s2", "loss"))], ids=["exact", "mc"])
def test_run_trial_derives_each_stream_from_its_one_seed(monkeypatch, n, roles):
    # The suites and lmqlab learn pass one trial seed; run_trial alone derives s1, s2 and the Monte Carlo loss.
    seeds = []
    draw, loss = harness.draw_training_set, harness.mc_loss

    def recorded(call):
        def record(*args):
            seeds.append(args[-1])
            return call(*args)

        return record

    monkeypatch.setattr(harness, "draw_training_set", recorded(draw))
    monkeypatch.setattr(harness, "mc_loss", recorded(loss))
    _trial(n, seed=11)
    assert seeds == [derive_seed(11, role) for role in roles]


_SIZES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([CAP - 1, CAP, CAP + 1, 2 * CAP]),
    st.integers(-(1 << 40), 1 << 40),
    st.booleans(),
    st.floats(-3, 3),
    st.just(float(CAP)),
)


@settings(max_examples=300, deadline=None)
@given(m1=_SIZES, m2=_SIZES, q=_SIZES)
def test_experiment_config_and_run_trial_share_one_gate(m1, m2, q):
    # A suite refuses its sizes and budget up front with run_trial's own gate: both refuse alike, or both go on.
    def outcome(call):
        try:
            call()
        except ValueError as exc:
            return type(exc), str(exc)
        except DrawReached:  # run_trial accepted its inputs and drew
            pass
        return "accepted"

    with _refusing_draws():
        config = outcome(lambda: small_config(m1=m1, m2=m2, q=q))
        trial = outcome(lambda: _trial(4, m1, m2, q))
    assert config == trial


def test_point_mass_trial_has_zero_loss():
    target = DnfFormula(3, (Term.of(1, 2),))
    dist = FiniteSupport(3, ((CubePoint.from_string("+++").mask, Fraction(1)),))
    cfg = small_config(family=lambda seed: (target, dist), trials=1, m1=20, m2=20)
    report = run_learning_suite(cfg)
    trial = report.trials[0]
    assert trial.loss == 0 and trial.success
    assert trial.terms_added == 1


# perfbench (perfbench/spans.py and workloads.py) times and counts each layer by replacing these names in
# lmqlab.harness, and oracle.sample, and reads these fields. A rename would not fail a run: it would leave a
# layer untimed, so the names are pinned here.
PERFBENCH_HARNESS_NAMES = {
    "random_dnf": random_dnf,
    "verify_reduction": reductions.verify_reduction,
    "simulate_pac_from_local": reductions.simulate_pac_from_local,
    "draw_training_set": oracle.draw_training_set,
    "LocalMQOracle": LocalMQOracle,
    "learn_evident_dnf_run": learner.learn_evident_dnf_run,
    "learn_evident_dnf": learner.learn_evident_dnf,
    "exact_loss": distributions.exact_loss,
    "mc_loss": distributions.mc_loss,
    "reconstruct_term": learner.reconstruct_term,
    "flips_reveal_term": evident.flips_reveal_term,
    "satisfies_evidently": evident.satisfies_evidently,
    "ExperimentConfig": ExperimentConfig,
    "SuiteReport": harness.SuiteReport,
    "doubled_tree_family": doubled_tree_family,
    "opposite_literal_family": opposite_literal_family,
    "run_learning_suite": run_learning_suite,
    "run_reconstruction_corpus": run_reconstruction_corpus,
    "run_reduction_suite": run_reduction_suite,
}


def test_names_and_fields_perfbench_relies_on():
    for name, value in PERFBENCH_HARNESS_NAMES.items():
        assert getattr(harness, name) is value, name
    assert oracle.sample is distributions.sample
    # Iterating a sample yields (CubePoint, label) pairs.
    s = distributions.LabeledSample(3, (5, 0, 5), (1, 0, 1))
    assert list(s) == [(CubePoint(3, 5), 1), (CubePoint(3, 0), 0), (CubePoint(3, 5), 1)]
    drawn = oracle.draw_training_set(UniformCube(3), DnfFormula(3, (Term.of(1),)), 8, 0)
    assert [(type(x), type(y)) for x, y in drawn] == [(CubePoint, int)] * 8
    assert [(x.mask, y) for x, y in drawn] == list(zip(drawn.masks, drawn.labels))
    # The constructor takes CubePoint anchors; query and log exist, and each record's point has a mask.
    target = DnfFormula(3, (Term.of(1),))
    built = LocalMQOracle(target, [CubePoint(3, 5)], 1)
    assert built.query(CubePoint(3, 4)) == 1 and [record.point.mask for record in built.log] == [4]
    # for_samples builds an instance of the class it is given, anchored at the samples' distinct masks.
    traced = type("Traced", (LocalMQOracle,), {})
    from_samples = traced.for_samples(target, 1, s)
    assert type(from_samples) is traced and from_samples.query_cap == oracle.QUERY_BUDGET_FACTOR * 3 * len(s)
    assert from_samples.query(CubePoint(3, 4)) == 1 and from_samples.stats().distance_histogram == {1: 1}
    # The timing fields perfbench reads.
    assert {"seconds_discovery", "seconds_reconstruct"} <= {f.name for f in dataclasses.fields(harness.CorpusReport)}
    assert {"phase1_seconds", "phase2_seconds"} <= {f.name for f in dataclasses.fields(learner.LearnerRun)}
    # Its traced verify reads each reduction's name and kind, and these report fields of a shipped row.
    read = {"kind", "ball_checked", "image_checked", "flip_radius", "q", "source_n"}
    assert read <= {f.name for f in dataclasses.fields(reductions.ReductionReport)}
    # A control is a shipped row under its own name, which tells it from the rows, and with the row's kind.
    controls = [
        reductions.corrupted_dnf_reduction_without_detector(2),
        reductions.corrupted_dfa_reduction_stuck_simulator(2),
        reductions.corrupted_tree_reduction_first_copy(2, 1),
    ]
    named = [("dnf-no-detector", "A"), ("dfa-stuck-simulator", "A"), ("tree-first-copy", "B")]
    assert [(c.name, c.kind) for c in controls] == named
