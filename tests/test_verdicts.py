"""Every verdict clause, each with a control that makes it, and no other clause, false.

A report passes iff every clause its ``clauses()`` names holds (``formats.Verdict``). ``CLAUSES`` has one row per
clause of each report class: the class, the clause, what its control does, and the control, which changes one input
or one ``harness`` name of a run that ``PASSING`` shows passing. A clause with no row, or a row naming no clause,
fails here. A row whose control is None names a clause that no control reaches.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from lmqlab import harness
from lmqlab.concepts import DecisionTree, DnfFormula, Leaf, Node, Term
from lmqlab.distributions import FiniteSupport, UniformCube
from lmqlab.evident import EvidenceReport, evidence_report
from lmqlab.formats import Verdict
from lmqlab.harness import (
    CorpusReport,
    ExperimentConfig,
    ReductionSuiteReport,
    SuiteReport,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
)
from lmqlab.oracle import LocalityViolation
from lmqlab.reductions import (
    CONSTRUCTIONS,
    ReductionReport,
    build_detector,
    corrupted_tree_reduction_first_copy,
    make_reduction,
    verify_reduction,
)

X1 = DnfFormula(2, (Term.of(1),))
X1_TREE = DecisionTree(2, Node(1, Leaf(0), Leaf(1)))
OPPOSITE = DnfFormula(2, (Term.of(1, 2), Term.of(-1, -2)))  # every satisfying point is evident
OVERLAPPING = DnfFormula(2, (Term.of(1), Term.of(2)))  # no satisfying point is evident
LABEL_MASKS = harness.label_masks
DETECTOR_ONLY = replace(make_reduction("dnf", 2), reduce=lambda h, phi: build_detector(phi))


def _one_opposite_trial(m):
    return run_learning_suite(ExperimentConfig("opposite-literal", opposite_literal_family(), 1, 0, 0.1, m, m))


def _corpus():
    return run_reconstruction_corpus(40, 1)


def _matrix():
    return run_reduction_suite(0)


# One passing run of each report class: its clauses() names the rows the table must hold.
PASSING = {
    SuiteReport: lambda: _one_opposite_trial(50),
    CorpusReport: _corpus,
    ReductionSuiteReport: _matrix,
    ReductionReport: lambda: verify_reduction(make_reduction("dnf", 2), X1),
    EvidenceReport: lambda: evidence_report(OPPOSITE, UniformCube(2), Fraction(1)),
}


def _patched(name, value, run):
    """A control: ``harness.<name>`` replaced by ``value``, then ``run()``."""

    def control(monkeypatch):
        monkeypatch.setattr(harness, name, value)
        return run()

    return control


def _shipped_rows_fail(reduction, concept):
    report = verify_reduction(reduction, concept)
    return replace(report, image_failures=1) if reduction.name in CONSTRUCTIONS else report


def _locality_violation(*args):
    raise LocalityViolation(2, 1)


# (report class, clause, what the control does, control(monkeypatch) -> a report of that class, or None).
CLAUSES = [
    (SuiteReport, "success_count", "one opposite-literal trial on m1 = m2 = 0 draws",
     lambda monkeypatch: _one_opposite_trial(0)),
    (CorpusReport, "biconditional_failures", "flip_table returns its table unflipped",
     _patched("flip_table", lambda table, n, j: table, _corpus)),
    (CorpusReport, "reveal_failures", "flips_reveal_term answers False",
     _patched("flips_reveal_term", lambda *args: False, _corpus)),
    (CorpusReport, "evident_points", "one formula with no evident point",
     lambda monkeypatch: run_reconstruction_corpus(1, 5)),
    (CorpusReport, "recon_failures", "reconstruct_terms returns the empty term at every point",
     _patched("reconstruct_terms", lambda oracle, counts: [(0, 0)] * len(counts), _corpus)),
    (CorpusReport, "crosscheck_mismatches", "satisfies_evidently answers False",
     _patched("satisfies_evidently", lambda *args: False, _corpus)),
    (CorpusReport, "locality_histogram", "parity_classes puts all of a formula's evident points in one class",
     _patched("parity_classes", lambda masks: [list(masks)], _corpus)),
    (ReductionSuiteReport, "constructions", "verify_reduction counts an image failure on each shipped row only",
     _patched("verify_reduction", _shipped_rows_fail, _matrix)),
    (ReductionSuiteReport, "size_checks", "count_above sets no point, so no majority expansion agrees",
     _patched("count_above", lambda columns, t: 0, _matrix)),
    (ReductionSuiteReport, "simulation_mismatches", "label_masks flips every label the audit compares",
     _patched("label_masks", lambda concept, masks: bytes(1 - b for b in LABEL_MASKS(concept, masks)), _matrix)),
    (ReductionSuiteReport, "uniqueness_errors", "simulate_pac_from_local raises LocalityViolation",
     _patched("simulate_pac_from_local", _locality_violation, _matrix)),
    (ReductionSuiteReport, "negative_controls", "the shipped tree reduction in place of its first-copy control",
     _patched("corrupted_tree_reduction_first_copy", lambda n, q0: make_reduction("tree", n, q0=q0), _matrix)),
    (ReductionReport, "image_failures", "x1's dnf reduction with the detector alone as its transform",
     lambda monkeypatch: verify_reduction(DETECTOR_ONLY, X1)),
    (ReductionReport, "ball_failures", "the first-copy tree control on x1",
     lambda monkeypatch: verify_reduction(corrupted_tree_reduction_first_copy(2, 1), X1_TREE)),
    # verify_reduction never counts an anchor failure: kind B's 2q < k decodes every ball point to its centre.
    (ReductionReport, "anchor_failures", "none", None),
    (EvidenceReport, "terms", "beta = 1 on x1 OR x2, which has no evident point",
     lambda monkeypatch: evidence_report(OVERLAPPING, UniformCube(2), Fraction(1))),
    (EvidenceReport, "some_term_satisfied", "x1 OR x2 under all mass at --, which satisfies neither term",
     lambda monkeypatch: evidence_report(OVERLAPPING, FiniteSupport(2, ((0, 1),)))),
]


def test_the_table_has_one_row_per_clause_of_every_report_class():
    rows = [(cls, clause) for cls, clause, *_ in CLAUSES]
    named = []
    for cls, run in PASSING.items():
        report = run()
        assert type(report) is cls and report.passed
        named += [(cls, clause) for clause in report.clauses()]
    assert set(Verdict.__subclasses__()) == set(PASSING)
    assert len(set(rows)) == len(rows) and set(rows) == set(named)


@pytest.mark.parametrize(
    "cls, clause, control",
    [(cls, clause, control) for cls, clause, _, control in CLAUSES if control],
    ids=[f"{cls.__name__}.{clause}" for cls, clause, _, control in CLAUSES if control],
)
def test_each_control_makes_its_clause_and_no_other_false(cls, clause, control, monkeypatch):
    report = control(monkeypatch)
    assert type(report) is cls
    assert [name for name, held in report.clauses().items() if not held] == [clause]
    line = report.to_dict()
    assert not report.passed and line.get("passed", line.get("verdict")) is False


def test_anchor_failures_is_the_one_clause_no_control_reaches():
    unreached = [(cls, clause) for cls, clause, _, control in CLAUSES if control is None]
    assert unreached == [(ReductionReport, "anchor_failures")]
