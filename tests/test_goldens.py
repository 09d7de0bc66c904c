"""The golden registry in tier-1: every CLI entry of tests/goldens.json through ``cli.main`` in process."""

import json
import re
from pathlib import Path

import pytest

import goldens
from lmqlab.cli import main

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


def test_digests_live_only_in_the_registry():
    sources = [*ROOT.glob("tests/*.py"), *ROOT.glob(".github/workflows/*.yml")]
    assert [path.name for path in sources if re.search("[0-9a-f]{64}", path.read_text())] == []
    for key in ("id", "sha256"):
        assert len({entry[key] for entry in goldens.ENTRIES}) == len(goldens.ENTRIES), key


def test_perfbench_goldens_are_the_registry_entries():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    pinned = {(w, s, name): d for w, seeds in golden.items() for s, names in seeds.items() for name, d in names.items()}
    assert pinned == {key: goldens.BY_ID[ident]["sha256"] for key, ident in PERFBENCH.items()}
