import json
import random
import re
from types import SimpleNamespace

import pytest

from lmqlab.cli import LEARN_KEYS, main
from lmqlab.concepts import DnfFormula, Term
from lmqlab.cube import ENUMERATION_CAP
from lmqlab.distributions import FiniteSupport, UniformCube
from lmqlab.formats import dump_dnf, dump_finite_support, parse_distribution, parse_dnf
from lmqlab.harness import (
    ExperimentConfig,
    TrialReport,
    derive_seed,
    doubled_tree_family,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
    run_trial,
)
from lmqlab.reductions import CONSTRUCTIONS


@pytest.fixture
def formula_file(tmp_path):
    path = tmp_path / "target.dnf"
    path.write_text(dump_dnf(DnfFormula(4, (Term.of(1, 2), Term.of(-1, -2)))))
    return str(path)


def test_learn_subcommand(formula_file, capsys):
    code = main(
        [
            "learn",
            "--target", formula_file,
            "--dist", "uniform:4",
            "--m1", "500",
            "--m2", "2000",
            "--seed", "5",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loss"] == "0"
    assert payload["estimator"] == "exact"
    assert payload["max_locality"] <= 1


def test_check_evident_pass_and_fail(formula_file, tmp_path, capsys):
    assert main(["check-evident", "--formula", formula_file, "--dist", "uniform:4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True

    overlapping = tmp_path / "overlap.dnf"
    overlapping.write_text("dim 2\n1\n2\n")
    assert (
        main(["check-evident", "--formula", str(overlapping), "--dist", "uniform:2", "--beta", "1/2"])
        == 1
    )
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is False


def test_verify_reduction_subcommand(capsys):
    code = main(["verify-reduction", "--construction", "tree", "--n", "4", "--q0", "1", "--seed", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["kind"] == "B"


def test_verify_reduction_with_concept_file(tmp_path, capsys):
    path = tmp_path / "f.dnf"
    path.write_text("dim 2\n1\n")
    code = main(
        ["verify-reduction", "--construction", "dnf", "--n", "2", "--concept", str(path)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == "dnf" and report["passed"] is True


def test_suite_subcommand_writes_jsonl(tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(
        [
            "suite",
            "--which", "learning",
            "--family", "opposite",
            "--trials", "2",
            "--m1", "300",
            "--m2", "1000",
            "--seed", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 1
    assert lines[0]["passed"] is True


def test_suite_config_file(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("which = learning\nfamily = opposite\ntrials = 2\nm1 = 300\nm2 = 1000\nseed = 4\n")
    code = main(["suite", "--config", str(cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["trials"] == 2


def test_learn_requires_sample_sizes(formula_file):
    with pytest.raises(SystemExit):
        main(["learn", "--target", formula_file, "--dist", "uniform:4"])


def _usage_error(capsys, argv) -> dict:
    """Run the CLI on bad input; assert exit 2 and return the one-line JSON error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return json.loads(err)


def test_learn_without_sample_sizes_is_a_json_error(formula_file, capsys):
    error = _usage_error(capsys, ["learn", "--target", formula_file, "--dist", "uniform:4"])
    assert error["type"] == "ValueError"
    assert "--m1" in error["error"]


def test_learn_auto_plan_beyond_desk_scale_is_refused_before_any_draw(formula_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_trial was called")

    monkeypatch.setattr("lmqlab.cli.run_trial", refuse)
    error = _usage_error(capsys, ["learn", "--target", formula_file, "--dist", "uniform:4", "--auto-plan"])
    assert error["type"] == "ValueError"
    assert "m1=174918" in error["error"] and "m2=998593908" in error["error"]
    assert "--m1" in error["error"] and "--m2" in error["error"]


def test_learn_auto_plan_within_desk_scale_runs(tmp_path, capsys):
    path = tmp_path / "one.dnf"
    path.write_text("dim 1\n1\n")
    argv = ["learn", "--target", str(path), "--dist", "uniform:1", "--auto-plan", "--epsilon", "0.5"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["m1"], payload["m2"]) == (267, 166542)
    assert payload["loss"] == "0"


def test_missing_file_is_a_json_error(tmp_path, capsys):
    argv = ["learn", "--target", str(tmp_path / "absent.dnf"), "--dist", "uniform:4", "--m1", "9", "--m2", "9"]
    assert _usage_error(capsys, argv)["type"] == "FileNotFoundError"


def test_learn_refused_query_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "target.dnf"
    path.write_text("dim 6\n1 2\n-1 -2\n")
    argv = ["learn", "--target", str(path), "--dist", "uniform:6", "--m1", "50", "--m2", "50", "--q", "0"]
    error = _usage_error(capsys, argv)
    assert error["type"] == "LocalityViolation"
    assert error["error"] == "query is not 0-local: nearest anchor at distance 1"


def test_suite_refused_query_is_a_json_error(capsys):
    argv = ["suite", "--which", "learning", "--trials", "1", "--q", "0", "--m1", "100", "--m2", "100"]
    error = _usage_error(capsys, argv)
    assert error["type"] == "LocalityViolation"
    refusal = "query is not 0-local: nearest anchor at distance 1"
    assert error["error"] == f"trial 0 (seed {derive_seed(0, 'trial', 0)}) failed: {refusal}"


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_verify_reduction_every_construction(name, capsys):
    assert main(["verify-reduction", "--construction", name, "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert (report["name"], report["kind"]) == (name, CONSTRUCTIONS[name].kind)


def test_verify_reduction_concept_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "f.dnf"
    path.write_text("dim 3\n1\n")
    error = _usage_error(
        capsys, ["verify-reduction", "--construction", "dnf", "--n", "2", "--concept", str(path)]
    )
    assert error == {"error": "dnf concept has dimension 3, expected 2", "type": "DimensionMismatch"}


@pytest.mark.parametrize("trans", ["trans: a +", "trans: a + b c"])
def test_verify_reduction_malformed_transition_is_a_json_error(tmp_path, capsys, trans):
    path = tmp_path / "bad.dfa"
    path.write_text(f"len: 2\nstart: a\naccept: a\n{trans}\ntrans: a - a\n")
    argv = ["verify-reduction", "--construction", "dfa", "--n", "2", "--concept", str(path)]
    error = _usage_error(capsys, argv)
    message = f"automaton line {trans!r} is not of the form 'trans: STATE (+|-) STATE'"
    assert error == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize("construction, theta", [("poly", ""), ("ptf", "theta: 0\n")])
def test_verify_reduction_repeated_monomial_variable_is_a_json_error(tmp_path, capsys, construction, theta):
    path = tmp_path / "p.poly"
    path.write_text(f"dim 2\n1/2: 1 1\n1/3: 2\n{theta}")
    argv = ["verify-reduction", "--construction", construction, "--n", "2", "--concept", str(path)]
    error = _usage_error(capsys, argv)
    assert error == {"error": "monomial repeats a variable: '1/2: 1 1'", "type": "ValueError"}


@pytest.mark.parametrize(
    "construction, text, key",
    [
        ("dfa", "len: 2\nstart: a\nlen: 3\naccept: a\ntrans: a + a\ntrans: a - a\n", "len:"),
        ("ptf", "dim 2\n1: 1\ntheta: 0\ntheta: 1\n", "theta:"),
        ("junta", "dim 2\nrelevant: 1\ntable: 01\ntable: 10\n", "table:"),
    ],
    ids=["dfa", "ptf", "junta"],
)
def test_verify_reduction_repeated_single_valued_line_is_a_json_error(tmp_path, capsys, construction, text, key):
    path = tmp_path / "concept.txt"
    path.write_text(text)
    argv = ["verify-reduction", "--construction", construction, "--n", "2", "--concept", str(path)]
    assert _usage_error(capsys, argv) == {"error": f"{key!r} given twice", "type": "ValueError"}


def test_verify_reduction_theta_line_must_match_construction(tmp_path, capsys):
    # A 'theta:' line makes a SparsePtf, which only the ptf reduction transforms: QReduction.transform refuses it.
    poly = tmp_path / "p.poly"
    poly.write_text("dim 2\n1: 1\n")
    ptf = tmp_path / "t.poly"
    ptf.write_text("dim 2\n1: 1\ntheta: 0\n")
    for construction, path, message in (
        ("ptf", poly, "ptf reduction transforms a SparsePtf, got a SparsePoly"),
        ("poly", ptf, "poly reduction transforms a SparsePoly, got a SparsePtf"),
    ):
        argv = ["verify-reduction", "--construction", construction, "--n", "2", "--concept", str(path)]
        assert _usage_error(capsys, argv) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize(
    "text, n", [("dim 4\n1 2\n-1 -2\n", 4), ("dim 24\n1 2 3\n-1 -2 4\n", 24)]
)
def test_learn_is_one_trial(tmp_path, capsys, text, n):
    path = tmp_path / "target.dnf"
    path.write_text(text)
    argv = ["learn", "--target", str(path), "--dist", f"uniform:{n}", "--m1", "300", "--m2", "600"]
    assert main(argv + ["--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    run, loss, estimator = run_trial(parse_dnf(text), UniformCube(n), 300, 600, 1, 9)
    assert payload["estimator"] == estimator == ("exact" if n <= 20 else "mc")
    assert payload["loss"] == str(loss)
    assert payload["hypothesis"] == dump_dnf(run.formula).splitlines()
    assert payload["queries"] == run.oracle_stats.query_count
    assert payload["positives"] == run.positives_seen


def test_suite_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("which = learning\nfamily = opposite\ntrials = 2\nm1 = 300\nm2 = 1000\n")
    assert main(["suite", "--config", str(cfg), "--trials", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["trials"] == 2


@pytest.mark.parametrize("line", ["trails = 2", "out = x.jsonl", "trials 2"])
def test_suite_config_rejects_unknown_or_malformed_lines(tmp_path, capsys, line):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"which = corpus\n{line}\n")
    assert _usage_error(capsys, ["suite", "--config", str(cfg)])["type"] == "ValueError"


def test_suite_config_values_are_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("which = bogus\n")
    error = _usage_error(capsys, ["suite", "--config", str(cfg)])
    assert error["type"] == "ArgumentError"
    assert "invalid choice: 'bogus'" in error["error"]


def test_argument_error_is_a_json_error(capsys):
    error = _usage_error(capsys, ["suite", "--trials", "x"])
    assert error == {"error": "argument --trials: invalid int value: 'x'", "type": "ArgumentError"}


def test_suite_negative_sample_size_is_a_json_error(capsys):
    argv = ["suite", "--which", "learning", "--trials", "1", "--m1", "-1", "--m2", "10"]
    error = _usage_error(capsys, argv)
    assert error == {"error": "sample count must be non-negative, got -1", "type": "ValueError"}


def test_suite_negative_locality_is_a_json_error(capsys):
    argv = ["suite", "--which", "learning", "--trials", "1", "--q", "-1", "--m1", "10", "--m2", "10"]
    error = _usage_error(capsys, argv)
    assert error == {"error": "locality budget must be non-negative, got -1", "type": "ValueError"}


@pytest.mark.parametrize("count", ["0", "-5"])
def test_suite_corpus_count_below_one_is_a_json_error(capsys, count):
    error = _usage_error(capsys, ["suite", "--which", "corpus", "--corpus-count", count])
    assert error == {"error": f"formula count must be at least 1, got {count}", "type": "ValueError"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check-evident", "--formula", "{dnf}", "--dist", "uniform:2", "--beta", "1/0"],
        ["check-evident", "--formula", "{dnf}", "--dist", "product:1/0,1/2"],
        ["check-evident", "--formula", "{dnf}", "--dist", "file:{support}"],
        ["verify-reduction", "--construction", "poly", "--n", "1", "--concept", "{poly}"],
        ["verify-reduction", "--construction", "ptf", "--n", "1", "--concept", "{ptf}"],
    ],
    ids=["beta", "product", "support-file", "coefficient", "theta"],
)
def test_zero_denominator_is_a_json_error(tmp_path, capsys, argv):
    files = {"dnf": "dim 2\n1\n", "support": "+- 1/0\n", "poly": "1/0: 1\n", "ptf": "1: 1\ntheta: 1/0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    error = _usage_error(capsys, [arg.format(**{name: tmp_path / name for name in files}) for arg in argv])
    assert error == {"error": "zero denominator in '1/0'", "type": "ValueError"}


def test_verify_reduction_beyond_the_flip_budget_is_refused_before_the_transform(capsys):
    # The refusal used to come after a 128k-term detector at n=40, and after a MemoryError at n=300.
    for n in ("40", "300"):
        error = _usage_error(capsys, ["verify-reduction", "--construction", "dnf", "--n", n])
        assert error["type"] == "ValueError"
        assert re.fullmatch(r"flip checks: \d+ exceeds the cap of 5000000", error["error"])


def test_negative_q0_is_a_json_error_naming_the_budget(capsys):
    # It used to blame a replication factor never passed: "need positive dimension and factor, got n=4, k=-1".
    error = _usage_error(capsys, ["verify-reduction", "--construction", "junta", "--n", "4", "--q0", "-1"])
    assert error == {"error": "locality budget must be non-negative, got -1", "type": "ValueError"}


@pytest.mark.parametrize("construction", ["dnf", "junta"])
def test_zero_dimension_is_a_json_error_naming_the_dimension(capsys, construction):
    # It used to blame a replication factor never passed: "need positive dimension and factor, got n=0, k=0"
    # for dnf, whose default k is n^2, and "..., k=3" for junta.
    error = _usage_error(capsys, ["verify-reduction", "--construction", construction, "--n", "0"])
    assert error == {"error": "dimension must be a positive integer, got 0", "type": "ValueError"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--construction", "junta", "--n", "4", "--k", "9"],
            "junta is a kind-B construction, whose replication factor is 2*q0+1; got k=9",
        ),
        (
            ["--construction", "dnf", "--n", "2", "--q0", "1"],
            "dnf is a kind-A construction, whose budget is k-1; got q0=1",
        ),
        (
            ["--construction", "dfa", "--n", "2", "--k", "3", "--q0", "2"],
            "dfa is a kind-A construction, whose budget is k-1; got q0=2",
        ),
    ],
    ids=["k-for-kind-b", "q0-for-kind-a", "q0-beside-k"],
)
def test_verify_reduction_refuses_a_flag_its_kind_would_ignore(capsys, argv, message):
    # Each flag used to be ignored silently, with exit 0.
    assert _usage_error(capsys, ["verify-reduction", *argv]) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize("beta", ["-3", "0", "3/2"])
def test_check_evident_beta_outside_unit_interval_is_a_json_error(formula_file, capsys, beta):
    argv = ["check-evident", "--formula", formula_file, "--dist", "uniform:4", "--beta", beta]
    error = _usage_error(capsys, argv)
    assert error == {"error": f"beta must lie in (0, 1], got {beta}", "type": "ValueError"}


def test_support_line_without_probability_is_a_json_error(formula_file, tmp_path, capsys):
    support = tmp_path / "support"
    support.write_text("+- 1/2\n++\n")
    argv = ["learn", "--target", formula_file, "--dist", f"file:{support}", "--m1", "9", "--m2", "9"]
    error = _usage_error(capsys, argv)
    assert error == {"error": "finite support line '++' is not of the form 'POINT PROB'", "type": "ValueError"}


@pytest.mark.parametrize("epsilon", ["0", "5", "nan"])
def test_learn_epsilon_outside_unit_interval_is_a_json_error(formula_file, capsys, epsilon):
    # Without --auto-plan these were echoed back, nan as "epsilon": NaN, which is not JSON.
    argv = ["learn", "--target", formula_file, "--dist", "uniform:4", "--m1", "9", "--m2", "9", "--epsilon", epsilon]
    error = _usage_error(capsys, argv)
    assert error == {"error": f"epsilon must lie in (0,1), got {float(epsilon)}", "type": "ValueError"}


def test_support_points_of_two_lengths_are_a_json_error(formula_file, tmp_path, capsys):
    support = tmp_path / "support"
    support.write_text("+-+ 1/2\n+- 1/2\n")
    error = _usage_error(capsys, ["check-evident", "--formula", formula_file, "--dist", f"file:{support}"])
    assert error == {"error": "support point has dimension 2, expected 3", "type": "DimensionMismatch"}


# (target, --dist, m1, m2): the index path (uniform n <= 8), a product distribution, a support file and a
# Monte Carlo loss (n = 28); "{support}" names the support file.
LEARN_RECORD_CASES = {
    "uniform-index-path": ("dim 6\n1 -2\n3 4\n", "uniform:6", 400, 3000),
    "product": ("dim 10\n1 -2\n3 4 -5\n", "product:1/3,1/2,2/3,1,1/2,2/5,1/2,0,1/2,3/4", 60, 600),
    "support-file": ("dim 4\n1 -2\n3\n", "file:{support}", 200, 2000),
    "monte-carlo-n28": ("dim 28\n1 -2\n3 4 5 -28\n", "uniform:28", 20, 200),
}


@pytest.mark.parametrize("case", LEARN_RECORD_CASES.values(), ids=LEARN_RECORD_CASES.keys())
def test_learn_line_is_the_trial_record_shared_fields_plus_its_inputs(tmp_path, capsys, case):
    text, spec, m1, m2 = case
    target, support = tmp_path / "target.dnf", tmp_path / "support.txt"
    target.write_text(text)
    support.write_text("++-- 1/3\n+-+- 1/6\n-+++ 1/4\n---- 1/4\n")
    spec, seed, epsilon = spec.format(support=support), 13, 0.25
    argv = ["learn", "--target", str(target), "--dist", spec, "--m1", str(m1), "--m2", str(m2)]
    assert main(argv + ["--seed", str(seed), "--epsilon", str(epsilon)]) == 0
    line = json.loads(capsys.readouterr().out)
    run, loss, estimator = run_trial(parse_dnf(text), parse_distribution(spec), m1, m2, 1, seed)
    record = TrialReport.of(0, seed, run, loss, estimator, epsilon).to_dict()
    shared = ("loss", "loss_float", "estimator", "queries", "max_locality", "positives", "terms_added", "terms_pruned")
    inputs = {"hypothesis": dump_dnf(run.formula).splitlines(), "epsilon": epsilon, "m1": m1, "m2": m2}
    assert line == {key: record[key] for key in shared} | inputs
    assert record["estimator"] == ("mc" if spec == "uniform:28" else "exact") and record["positives"] > 0


class DrawReached(Exception):
    """Raised by a patched ``sample`` or ``sample_indices``: the run got as far as a draw."""


@pytest.fixture
def draws_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise DrawReached

    for name in ("sample", "sample_indices"):
        monkeypatch.setattr(f"lmqlab.oracle.{name}", refuse)


CAP = 1 << ENUMERATION_CAP


@pytest.mark.parametrize("command", ["learn", "suite"])
@pytest.mark.parametrize("m1, m2", [(CAP - 9, 10), (1, CAP), (99999999999, 1)], ids=["just-over", "m2-over", "huge"])
def test_explicit_sample_sizes_over_the_desk_scale_cap_are_refused_before_any_draw(
    formula_file, capsys, draws_refused, command, m1, m2
):
    flags = {"learn": ["--target", formula_file, "--dist", "uniform:4"], "suite": ["--which", "learning"]}[command]
    error = _usage_error(capsys, [command, *flags, "--m1", str(m1), "--m2", str(m2)])
    message = f"sample sizes m1 + m2: {m1 + m2} exceeds the cap of {CAP}"
    assert error == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize("n", [4, 12], ids=["sample_indices", "sample"])
@pytest.mark.parametrize("m1, m2", [(CAP - 10, 10), (0, CAP)], ids=["sum-at-cap", "m2-at-cap"])
def test_explicit_sample_sizes_at_the_desk_scale_cap_reach_the_draws(tmp_path, draws_refused, n, m1, m2):
    target = tmp_path / "target.dnf"
    target.write_text(f"dim {n}\n1 -2\n3\n")
    sizes = ["--m1", str(m1), "--m2", str(m2)]
    with pytest.raises(DrawReached):
        main(["learn", "--target", str(target), "--dist", f"uniform:{n}"] + sizes)
    with pytest.raises(RuntimeError, match="trial 0 .* failed") as raised:
        main(["suite", "--which", "learning", "--trials", "1", "--family", "opposite"] + sizes)
    assert isinstance(raised.value.__cause__, DrawReached)


@pytest.mark.parametrize(
    "n, sizes",
    [(1, ["--m1", "3", "--m2", "4"]), (4, ["--m1", "10", "--m2", "20"]), (1, ["--m1", "3"]), (4, ["--m2", "20"])],
    ids=["both-n1", "both-n4", "m1-only", "m2-only"],
)
def test_learn_auto_plan_with_explicit_sizes_is_refused_before_planning_or_drawing(
    tmp_path, capsys, monkeypatch, draws_refused, n, sizes
):
    def refuse(*args, **kwargs):
        raise AssertionError("plan_samples was called")

    monkeypatch.setattr("lmqlab.cli.plan_samples", refuse)
    target = tmp_path / "target.dnf"
    target.write_text(f"dim {n}\n1\n")
    argv = ["learn", "--target", str(target), "--dist", f"uniform:{n}", "--auto-plan", "--epsilon", "0.5"]
    message = "--auto-plan derives m1 and m2: pass --auto-plan or --m1 and --m2, not both"
    assert _usage_error(capsys, argv + sizes) == {"error": message, "type": "ValueError"}


def _refuse_suites(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in ("run_learning_suite", "run_reconstruction_corpus", "run_reduction_suite"):
        monkeypatch.setattr(f"lmqlab.cli.{name}", refuse)


@pytest.mark.parametrize(
    "flags, message",
    [
        (
            ["--which", "corpus", "--corpus-count", "1", "--trials", "0", "--epsilon", "7", "--m1", "-1",
             "--m2", "99999999999"],
            "trial count must be at least 1, got 0",
        ),
        (["--which", "reductions", "--m1", "-1"], "sample count must be non-negative, got -1"),
        (
            ["--which", "learning", "--family", "opposite", "--corpus-count", "0"],
            "formula count must be at least 1, got 0",
        ),
        (["--which", "reductions", "--seed", "-1"], "seed must be a non-negative int, as every derived seed is, got -1"),
    ],
    ids=["corpus-bad-learning-flags", "reductions-bad-m1", "learning-bad-corpus-count", "reductions-negative-seed"],
)
def test_suite_checks_every_flag_before_any_suite_runs(capsys, monkeypatch, flags, message):
    _refuse_suites(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["suite", *flags])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": message, "type": "ValueError"})]


def _stub_report(name: str, passed: bool):
    return SimpleNamespace(to_dict=lambda: {"name": name}, passed=passed)


@pytest.mark.parametrize("which", ["corpus", "reductions"])
@pytest.mark.parametrize("family", ["opposite", "doubled", "both"])
def test_suite_builds_the_selected_configs_without_drawing_an_instance(capsys, monkeypatch, which, family):
    _refuse_suites(monkeypatch)
    runner = {"corpus": "run_reconstruction_corpus", "reductions": "run_reduction_suite"}[which]
    monkeypatch.setattr(f"lmqlab.cli.{runner}", lambda *args: _stub_report(which, True))
    built = []

    def factory(name):
        def make(seed):
            raise AssertionError(f"{name}'s make was called")

        return lambda: built.append(name) or make

    families = [("opposite", "opposite-literal", factory("opposite-literal")),
                ("doubled", "doubled-tree", factory("doubled-tree"))]
    monkeypatch.setattr("lmqlab.cli.FAMILIES", families)
    assert main(["suite", "--which", which, "--family", family]) == 0
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [{"name": which}]
    both = ["opposite-literal", "doubled-tree"]
    assert built == {"opposite": both[:1], "doubled": both[1:], "both": both}[family]


@pytest.mark.parametrize("failing", [None, "opposite-literal", "doubled-tree", "corpus", "reductions"])
def test_suite_all_prints_four_lines_in_order_and_exits_1_iff_one_failed(capsys, monkeypatch, failing):
    monkeypatch.setattr("lmqlab.cli.run_learning_suite", lambda cfg: _stub_report(cfg.name, cfg.name != failing))
    for runner, name in (("run_reconstruction_corpus", "corpus"), ("run_reduction_suite", "reductions")):
        monkeypatch.setattr(f"lmqlab.cli.{runner}", lambda *args, name=name: _stub_report(name, name != failing))
    assert main(["suite", "--which", "all", "--family", "both"]) == (0 if failing is None else 1)
    names = [json.loads(line)["name"] for line in capsys.readouterr().out.splitlines()]
    assert names == ["opposite-literal", "doubled-tree", "corpus", "reductions"]


def test_suite_all_lines_are_each_suites_report(capsys):
    # A small --which all run prints the harness's own four reports, in order, and exits 1 iff one failed.
    seed, trials, m1, m2, count = 3, 1, 40, 200, 2
    sizes = ["--trials", str(trials), "--m1", str(m1), "--m2", str(m2), "--corpus-count", str(count)]
    code = main(["suite", "--which", "all", "--family", "both", "--seed", str(seed), *sizes])
    reports = [
        run_learning_suite(ExperimentConfig(name, factory(), trials, seed, 0.1, m1, m2))
        for name, factory in (("opposite-literal", opposite_literal_family), ("doubled-tree", doubled_tree_family))
    ] + [run_reconstruction_corpus(count, seed), run_reduction_suite(seed)]
    assert capsys.readouterr().out == "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports)
    assert code == (0 if all(r.passed for r in reports) else 1)


@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_learn_negative_seed_is_refused_before_any_draw(formula_file, capsys, draws_refused, seed):
    # Every trial seed a suite derives is non-negative, so a negative --seed names no trial to replay.
    argv = ["learn", "--target", formula_file, "--dist", "uniform:4", "--m1", "40", "--m2", "200", "--seed", seed]
    message = f"seed must be a non-negative int, as every derived seed is, got {seed}"
    assert _usage_error(capsys, argv) == {"error": message, "type": "ValueError"}


@pytest.mark.parametrize("construction", list(CONSTRUCTIONS))
def test_verify_reduction_negative_seed_is_refused_before_any_fixture(capsys, monkeypatch, construction):
    # --seed -1 used to build --seed 1's fixture, as random.Random reads -s as s.
    def refuse(n, rng):
        raise AssertionError("a fixture was built")

    monkeypatch.setitem(CONSTRUCTIONS, construction, CONSTRUCTIONS[construction]._replace(example=refuse))
    argv = ["verify-reduction", "--construction", construction, "--n", "2", "--seed", "-1"]
    message = "seed must be a non-negative int, as every derived seed is, got -1"
    assert _usage_error(capsys, argv) == {"error": message, "type": "ValueError"}


# Suites whose trials learn --seed T replays: (name, family, trials, m1, m2, estimator). The dense families
# at the acceptance sizes, then one wide trial whose loss is Monte Carlo, so its loss stream is replayed too.
REPLAYED_SUITES = [
    ("opposite-literal", opposite_literal_family(), 3, 5000, 50000, "exact"),
    ("doubled-tree", doubled_tree_family(), 3, 5000, 50000, "exact"),
    ("opposite-literal-wide", opposite_literal_family(24, 32), 1, 5000, 20000, "mc"),
]


@pytest.mark.parametrize(
    "name, family, trials, m1, m2, estimator", REPLAYED_SUITES, ids=[row[0] for row in REPLAYED_SUITES]
)
def test_learn_seed_t_replays_suite_trial_t(tmp_path, capsys, name, family, trials, m1, m2, estimator):
    cfg = ExperimentConfig(name, family, trials, 42, 0.1, m1, m2)
    target_file, support_file = tmp_path / "target.dnf", tmp_path / "support.txt"
    for trial in run_learning_suite(cfg).trials:
        target, dist = cfg.family(derive_seed(trial.seed, "instance"))
        target_file.write_text(dump_dnf(target))
        if isinstance(dist, FiniteSupport):
            support_file.write_text(dump_finite_support(dist))
            spec = f"file:{support_file}"
        else:
            assert dist == UniformCube(target.n)
            spec = f"uniform:{target.n}"
        sizes = ["--m1", str(m1), "--m2", str(m2), "--seed", str(trial.seed)]
        assert main(["learn", "--target", str(target_file), "--dist", spec, *sizes]) == 0
        line, record = json.loads(capsys.readouterr().out), trial.to_dict()
        assert {key: line[key] for key in LEARN_KEYS} == {key: record[key] for key in LEARN_KEYS}
        assert record["estimator"] == estimator


def _recorded_learn(monkeypatch, tmp_path, capsys, seed, m1):
    """``learn`` on a 28-variable target under the uniform cube: its printed line and the seeds of every generator
    ``distributions`` built for it, in order."""
    built = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr("lmqlab.distributions.random.Random", Recording)
    target = tmp_path / "target28.dnf"
    target.write_text("dim 28\n1 -2\n3 4 5 -28\n")
    argv = ["learn", "--target", str(target), "--dist", "uniform:28", "--m1", m1, "--m2", "200", "--seed", seed]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out), built


def test_learn_seeds_share_no_stream(tmp_path, capsys, monkeypatch):
    # learn --seed S used to draw s1, s2 and the loss from S, S+1 and S+2: --seed 5's s2 and loss were --seed 6's
    # s1 and s2. At n = 28 the Monte Carlo loss is drawn too when the hypothesis differs from the target (here the
    # empty one, from --m1 0), so each run builds three streams.
    streams = []
    for seed in ("5", "6"):
        line, built = _recorded_learn(monkeypatch, tmp_path, capsys, seed, "0")
        assert line["estimator"] == "mc" and line["hypothesis"] == ["dim 28"] and line["loss"] != "0"
        streams.append(set(built))
        assert len(built) == len(streams[-1]) == 3
    assert streams[0].isdisjoint(streams[1])


def test_learn_of_an_exact_hypothesis_draws_no_loss_stream(tmp_path, capsys, monkeypatch):
    # --seed 5 learns the target's own terms: both tables over the 6 read coordinates agree, so the loss is 0 with
    # no loss stream built, and the line is the one the 100,000 Monte Carlo draws gave.
    line, built = _recorded_learn(monkeypatch, tmp_path, capsys, "5", "20")
    assert len(set(built)) == len(built) == 2
    assert line == {
        "epsilon": 0.1, "estimator": "mc", "hypothesis": ["dim 28", "1 -2", "3 4 5 -28"], "loss": "0",
        "loss_float": 0.0, "m1": 20, "m2": 200, "max_locality": 1, "positives": 8, "queries": 224,
        "terms_added": 2, "terms_pruned": 0,
    }


@pytest.mark.parametrize(
    "sizes, message",
    [
        (["--m1", "2000", "--m2", "10000", "--q", "-1"], "locality budget must be non-negative, got -1"),
        (["--m1", "2000", "--m2", "-1"], "sample count must be non-negative, got -1"),
        (["--m1", "-1", "--m2", "-1", "--q", "-1"], "sample count must be non-negative, got -1"),
    ],
    ids=["q", "m2", "m1-first"],
)
def test_learn_refuses_a_negative_size_or_locality_before_any_draw(formula_file, capsys, draws_refused, sizes, message):
    error = _usage_error(capsys, ["learn", "--target", formula_file, "--dist", "uniform:4", *sizes])
    assert error == {"error": message, "type": "ValueError"}
