"""The golden registry: every pinned verdict of lmqlab, each written once.

``goldens.json`` names each verdict by ``id``, and ``goldens/<id>.json`` holds its one output line, byte for byte
and without a trailing newline: a pin is byte equality with that file. An entry with an ``argv`` is a CLI run. It
may hold the files to write first (``{dir}`` in the argv names their directory), the exit code (default 0), the
``type`` of a one-line JSON error on stderr, field equalities on the output line, and a bound in ``seconds``.
Tier-1 runs each such entry through ``lmqlab.cli.main`` in process (``tests/test_goldens.py``). Running this file
runs each through the installed ``lmqlab`` script, one subprocess at a time, and exits 1 if any fails::

    python -m pip install . && python tests/goldens.py

An entry without ``argv`` is a suite the CLI cannot select, or one a tier-1 fixture computes once for
several checks; the test that computes it checks it with ``assert_pinned``. To re-baseline a verdict, replace its
file with the new line, and ``git diff`` shows what moved. A failure names the first JSON path at which the line
and the file differ, both values there, and how many paths differ. Both are read with the standard ``json``
module, not with lmqlab's serializer, so a serializer fault cannot hide itself.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).parent
ENTRIES = json.loads((HERE / "goldens.json").read_text())
BY_ID = {entry["id"]: entry for entry in ENTRIES}
ABSENT = "<absent>"


def pinned(ident: str) -> str:
    """The pinned line of ``ident``, as ``goldens/<id>.json`` holds it."""
    return (HERE / "goldens" / f"{ident}.json").read_text()


def differences(expected, actual, path: str = "$") -> list[tuple[str, object, object]]:
    """Every JSON path at which two parsed values differ, in sorted-key order, as (path, expected, actual)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return [
            diff
            for key in sorted({*expected, *actual})
            for diff in differences(expected.get(key, ABSENT), actual.get(key, ABSENT), f"{path}.{key}")
        ]
    if isinstance(expected, list) and isinstance(actual, list):
        padded = max(len(expected), len(actual))
        expected, actual = (side + [ABSENT] * (padded - len(side)) for side in (expected, actual))
        return [diff for i, pair in enumerate(zip(expected, actual)) for diff in differences(*pair, f"{path}[{i}]")]
    # 1, 1.0 and true are equal in Python and not in JSON.
    return [] if (type(expected), expected) == (type(actual), actual) else [(path, expected, actual)]


def describe(expected: str, actual: str) -> str:
    """Why two lines differ: the first differing JSON path with both values, and how many paths differ."""
    try:
        diffs = differences(json.loads(expected), json.loads(actual))
    except ValueError as exc:
        return f"not comparable as JSON ({exc})"
    if not diffs:
        return "the same JSON values in other bytes"
    path, old, new = diffs[0]
    return f"{len(diffs)} path(s) differ, first {path}: expected {json.dumps(old)}, got {json.dumps(new)}"


def assert_pinned(ident: str, line: str) -> None:
    expected = pinned(ident)
    assert line == expected, f"line differs from goldens/{ident}.json: {describe(expected, line)}"


def check(entry: dict, lmqlab) -> None:
    """Run ``entry``'s argv through ``lmqlab(argv, timeout) -> (exit code, stdout, stderr)`` and check its pins."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in entry.get("files", {}).items():
            Path(tmp, name).write_text(text)
        start = time.perf_counter()
        code, out, err = lmqlab([arg.replace("{dir}", tmp) for arg in entry["argv"]], entry.get("seconds"))
        elapsed = time.perf_counter() - start
    expected_code = entry.get("exit", 0)
    assert code == expected_code, f"exit {code}, expected {expected_code}: {err}"
    lines = (err if "type" in entry else out).splitlines()
    assert len(lines) == 1, f"{len(lines)} output lines, expected 1"
    assert_pinned(entry["id"], lines[0])
    report = json.loads(lines[0])
    fields = entry.get("fields", {})
    if "type" in entry:
        fields = {**fields, "type": entry["type"]}
    for key, value in fields.items():
        assert report.get(key) == value, f"{key} {report.get(key)!r}, expected {value!r}"
    if "seconds" in entry:
        assert elapsed <= entry["seconds"], f"{elapsed:.1f} s, bound {entry['seconds']} s"


def _installed(argv: list[str], timeout: float | None) -> tuple[int, str, str]:
    done = subprocess.run(["lmqlab", *argv], capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    failed = 0
    for entry in ENTRIES:
        if "argv" in entry:
            try:
                check(entry, _installed)
                print(f"ok {entry['id']}")
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failed += 1
                print(f"FAIL {entry['id']}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
