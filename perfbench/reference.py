"""The fixed reference loop that benchmark times are divided by.

Host speed on a small shared machine moves by tens of percent, both in
fast swings of a few hundred milliseconds and in drift over tens of
seconds, so raw seconds cannot decide a later claim. The benchmark runs
this loop (0.3 to 0.5 ms) in the same process every 10 ms while a verdict
runs, and reports workload time in units of the loop's mean time over the
verdict ("ref"). The loop is part of the measuring instrument:
a change that is being measured must never edit it. A deliberate change
bumps REF_VERSION, updates REF_SOURCE_SHA256 and REF_CHECKSUM, and
re-measures the baseline; `check_reference` refuses a loop that differs.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass

REF_VERSION = 1

# Set-up time is measured against a fixed start-up too: a child interpreter
# that imports standard modules lmqlab also imports and prints the time.
# Process start-up moves with the host like the set-up it is compared with,
# which the loop below does not (its ratio spread 0.11 against 0.30 raw).
STARTUP_REF_CODE = (
    "import time, bisect, contextlib, dataclasses, fractions, hashlib, itertools, "
    "json, math, random, statistics, typing; print(time.monotonic())"
)
# Median time of that start-up on the reference host (2 cores, Python 3.11).
STARTUP_REF_NOMINAL_S = 0.08
REF_SOURCE_SHA256 = "276bc84c5d3b84e6fca21ea443b92433e9c11097e7d737650b8d38b5996a005b"
REF_CHECKSUM = 1802


@dataclass(frozen=True, slots=True)
class _Point:
    n: int
    mask: int

    def flip(self, j: int) -> "_Point":
        return _Point(self.n, self.mask ^ (1 << (self.n - j)))


def reference_loop() -> int:
    """Pure-Python mix of what lmqlab's hot paths do: allocate small frozen
    objects, flip bits, hash tuples and frozensets into dicts, call methods."""
    acc = 0
    seen = {}
    points = []
    x = 0x2545F491
    for i in range(60):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        p = _Point(12, x & 0xFFF)
        for j in range(1, 5):
            q = p.flip(j)
            key = (q.mask, j)
            seen[key] = seen.get(key, 0) + 1
            acc += q.mask.bit_count()
        block = frozenset((p.mask & 7, p.mask >> 9))
        if block in seen:
            acc += 1
        seen[block] = i
        points.append(p)
    return acc + len(seen) + len(points)


def check_reference() -> None:
    """Raise unless the loop is exactly the versioned one."""
    source = inspect.getsource(_Point) + inspect.getsource(reference_loop) + STARTUP_REF_CODE
    digest = hashlib.sha256(source.encode()).hexdigest()
    if digest != REF_SOURCE_SHA256 or reference_loop() != REF_CHECKSUM:
        raise RuntimeError(
            f"reference loop v{REF_VERSION} was modified (source sha256 {digest}); "
            "bump REF_VERSION and re-measure the baseline instead"
        )
