import json

import pytest

from lmqlab.cli import main
from lmqlab.concepts import DnfFormula, Term
from lmqlab.distributions import UniformCube
from lmqlab.formats import dump_dnf, parse_dnf
from lmqlab.harness import derive_seed, run_trial
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
    assert error["type"] == "DimensionMismatch"


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
    poly = tmp_path / "p.poly"
    poly.write_text("dim 2\n1: 1\n")
    ptf = tmp_path / "t.poly"
    ptf.write_text("dim 2\n1: 1\ntheta: 0\n")
    for construction, path in (("ptf", poly), ("poly", ptf)):
        argv = ["verify-reduction", "--construction", construction, "--n", "2", "--concept", str(path)]
        assert "theta" in _usage_error(capsys, argv)["error"]


@pytest.mark.parametrize(
    "text, n", [("dim 4\n1 2\n-1 -2\n", 4), ("dim 24\n1 2 3\n-1 -2 4\n", 24)]
)
def test_learn_is_one_trial(tmp_path, capsys, text, n):
    path = tmp_path / "target.dnf"
    path.write_text(text)
    argv = ["learn", "--target", str(path), "--dist", f"uniform:{n}", "--m1", "300", "--m2", "600"]
    assert main(argv + ["--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    run, loss, estimator = run_trial(parse_dnf(text), UniformCube(n), 300, 600, 1, (9, 10, 11))
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
    assert error == {"error": "sample sizes must be non-negative, got m1=-1, m2=10", "type": "ValueError"}


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
        assert error["type"] == "ValueError" and error["error"].endswith("checks, budget is 5000000")


def test_negative_q0_is_a_json_error_naming_the_budget(capsys):
    # It used to blame a replication factor never passed: "need positive dimension and factor, got n=4, k=-1".
    error = _usage_error(capsys, ["verify-reduction", "--construction", "junta", "--n", "4", "--q0", "-1"])
    assert error == {"error": "locality budget must be non-negative, got -1", "type": "ValueError"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--construction", "junta", "--n", "4", "--k", "9"],
            "junta is a kind-B construction, whose replication factor is 2*q0+1; got k=9",
        ),
        (
            ["--construction", "dnf", "--n", "2", "--q0", "1"],
            "dnf is a kind-A construction, whose budget is k-1; --q0 is for kind B",
        ),
        (
            ["--construction", "dfa", "--n", "2", "--k", "3", "--q0", "2"],
            "dfa is a kind-A construction, whose budget is k-1; --q0 is for kind B",
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
