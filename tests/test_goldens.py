"""The golden registry in tier-1: every CLI entry of tests/goldens.json through ``cli.main`` in process."""

import hashlib
import json
import re
from pathlib import Path

import pytest

import goldens
from lmqlab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

# perfbench/golden.json's (workload, seed, verdict) keys, and the registry entries they repeat.
PERFBENCH = {
    ("corpus", "20260811", "corpus"): "acceptance-corpus-1000-seed20260811",
    ("learn-dense", "42", "doubled-tree"): "acceptance-learning-doubled-seed42",
    ("learn-dense", "42", "opposite-literal"): "acceptance-learning-opposite-seed42",
    ("learn-wide", "42", "opposite-literal-wide"): "acceptance-learning-wide-seed42",
    ("reduce-matrix", "3", "reductions"): "acceptance-reductions-seed3",
}


@pytest.mark.parametrize("entry", [e for e in goldens.ENTRIES if "argv" in e], ids=lambda e: e["id"])
def test_cli_verdict_is_pinned(entry, capsys):
    def lmqlab(argv, timeout):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    goldens.check(entry, lmqlab)


# The flags no CLI entry passes, on purpose: a suite line does not name its --q, so its pin could not tell what it
# checked, and --out writes a file that tests/test_cli.py checks. learn --q is pinned by a refusal (learn-q0-refused),
# whose error names what it checked; verify-reduction --concept by a refusal (verify-poly-n2-q0=5-cap-refused) and by
# one passing line per junta, tree and dfa concept file, which pins the parse-and-verify path, not the parsed concept.
# A new flag fails here until a golden passes it or it is listed.
UNPINNED_FLAGS = {
    "learn": {"--out"},
    "check-evident": {"--out"},
    "verify-reduction": {"--out"},
    "suite": {"--q", "--out"},
}


def test_every_cli_flag_but_the_unpinned_ones_is_passed_by_a_golden(capsys):
    commands = re.search(r"\{(.+)\}", build_parser().format_usage()).group(1).split(",")
    unpinned = {}
    for command in commands:
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        passed = {arg for e in goldens.ENTRIES if e.get("argv", [None])[0] == command for arg in e["argv"]}
        unpinned[command] = set(re.findall(r"--[a-z0-9-]+", usage)) - passed
    assert unpinned == UNPINNED_FLAGS


def test_every_pinned_line_lives_in_one_file():
    files = {path.name for path in (ROOT / "tests" / "goldens").iterdir()}
    assert len(goldens.BY_ID) == len(goldens.ENTRIES) and files == {f"{ident}.json" for ident in goldens.BY_ID}
    lines = [goldens.pinned(ident) for ident in goldens.BY_ID]
    assert len(set(lines)) == len(lines) and all("\n" not in line for line in lines)
    # No digest stands in for a line: tests/*.py and the workflows hold no 64-hex string.
    sources = [*ROOT.glob("tests/*.py"), *ROOT.glob(".github/workflows/*.yml")]
    assert [path.name for path in sources if re.search("[0-9a-f]{64}", path.read_text())] == []


def test_perfbench_goldens_are_the_registry_lines():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    pinned = {(w, s, name): d for w, seeds in golden.items() for s, names in seeds.items() for name, d in names.items()}
    hashed = {key: hashlib.sha256(goldens.pinned(ident).encode()).hexdigest() for key, ident in PERFBENCH.items()}
    assert pinned == hashed


def _edited(ident: str, edit) -> str:
    report = json.loads(goldens.pinned(ident))
    edit(report)
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize(
    "ident, edit, message",
    [
        (
            "verify-junta-n4-q0=1",
            lambda r: r.update(ball_checked=r["ball_checked"] + 1),
            "1 path(s) differ, first $.ball_checked: expected 192, got 193",
        ),
        (
            "check-evident-thirds-support",
            lambda r: r["terms"][1].update(p_evident="0"),
            '1 path(s) differ, first $.terms[1].p_evident: expected "1/7", got "0"',
        ),
        (
            "check-evident-thirds-support",
            lambda r: r["terms"].pop(),
            '1 path(s) differ, first $.terms[1]: expected {"conditional": "3/10", "p_evident": "1/7", ',
        ),
        ("verify-dfa-n4", lambda r: r.update(passed=1), "1 path(s) differ, first $.passed: expected true, got 1"),
        ("verify-dfa-n4", lambda r: r.pop("kind"), '1 path(s) differ, first $.kind: expected "A", got "<absent>"'),
    ],
    ids=["field", "nested", "list-shorter", "type", "key-dropped"],
)
def test_an_edited_line_fails_naming_its_first_path_and_both_values(ident, edit, message):
    with pytest.raises(AssertionError) as exc:
        goldens.assert_pinned(ident, _edited(ident, edit))
    assert str(exc.value).startswith(f"line differs from goldens/{ident}.json: {message}")


def test_a_line_in_other_bytes_fails_though_its_values_match():
    line = goldens.pinned("verify-dfa-n4")
    with pytest.raises(AssertionError, match="the same JSON values in other bytes"):
        goldens.assert_pinned("verify-dfa-n4", json.dumps(json.loads(line), sort_keys=True, indent=1))
