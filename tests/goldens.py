"""The golden registry: every pinned verdict of lmqlab, each written once in ``goldens.json``.

An entry names a verdict by ``id`` and pins the sha256 of its one output line. An entry with an
``argv`` is a CLI run. It may hold the files to write first (``{dir}`` in the argv names their
directory), the exit code (default 0), the ``type`` of a one-line JSON error on stderr, field
equalities on the output line, and a bound in ``seconds``. Tier-1 runs each such entry through
``lmqlab.cli.main`` in process (``tests/test_goldens.py``). Running this file runs each through the
installed ``lmqlab`` script, one subprocess at a time, and exits 1 if any fails::

    python -m pip install . && python tests/goldens.py

An entry without ``argv`` is a suite the CLI cannot select, or one a tier-1 fixture computes once for
several checks; the test that computes it checks it with ``assert_pinned``. To re-baseline a verdict,
edit its entry's sha256: a failure names the id with the expected and the actual digest.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ENTRIES = json.loads(Path(__file__).with_name("goldens.json").read_text())
BY_ID = {entry["id"]: entry for entry in ENTRIES}


def assert_pinned(ident: str, line: str) -> None:
    actual, expected = hashlib.sha256(line.encode()).hexdigest(), BY_ID[ident]["sha256"]
    assert actual == expected, f"sha256 {actual}, expected {expected}"


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
