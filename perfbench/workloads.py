"""The four workloads: what one verdict runs, and how its output is checked.

A verdict is one fixed unit of lmqlab work that ends in a pass/fail answer:
a learning suite, a corpus audit or a reduction matrix. Each workload runs
its verdicts in a closed loop (one process, one thread, one client; the
next verdict starts when the previous one returns) and drives only
lmqlab's public API. Outputs are checked against golden sha256 digests of
the canonical reports for the acceptance verdict that opens every run, and
on every verdict against the reports' own verdicts and exact invariants.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lmqlab.harness import (
    ExperimentConfig,
    SuiteReport,
    doubled_tree_family,
    opposite_literal_family,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
)

from spans import SHIPPED_REDUCTIONS, Instrument

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_seeds(workload: "Workload", seed: int, seconds: int) -> list[int]:
    """Base seeds of a run's verdicts.

    Verdict 0 is the workload's acceptance verdict, the same in every run,
    so every run checks golden digests; the others derive from the run
    seed. The count, max(2, ceil(seconds / nominal_s)), gives at least
    `seconds` of work on the reference host and fixes a run's work by its
    arguments, so both sides of a comparison do the same work.
    """
    count = max(2, math.ceil(seconds / workload.nominal_s))
    derived = (
        int.from_bytes(hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()[:8], "big") >> 1
        for k in range(1, count)
    )
    return [workload.default_seed, *derived]


# ---------------------------------------------------------------------------
# Learning suites


def _learning_configs(base: int, smoke: bool, wide: bool) -> list[ExperimentConfig]:
    if wide:
        return [
            ExperimentConfig(
                name="opposite-literal-wide", family=opposite_literal_family(24, 32),
                trials=1 if smoke else 10, base_seed=base, epsilon=0.1, m1=5000, m2=20000,
            )
        ]
    trials = 2 if smoke else 20
    return [
        ExperimentConfig(
            name=name, family=family, trials=trials, base_seed=base, epsilon=0.1,
            m1=5000, m2=50000, success_threshold=1 if smoke else 15,
        )
        for name, family in (
            ("doubled-tree", doubled_tree_family(4, 8, max_leaves=16)),
            ("opposite-literal", opposite_literal_family(4, 8)),
        )
    ]


def _run_learning(wide: bool):
    def run(base: int, smoke: bool, inst: Instrument) -> dict:
        reports = {}
        for cfg in _learning_configs(base, smoke, wide):
            cfg = dataclasses.replace(cfg, family=inst.family(cfg.family))
            reports[cfg.name] = inst.call("harness.run_learning_suite", run_learning_suite, cfg)
        return reports

    return run


def _check_learning(reports: dict) -> list[str]:
    problems = []
    for name, report in reports.items():
        if not report.passed:
            problems.append(f"{name}: {report.success_count}/{len(report.trials)} successes, suite failed")
        for t in report.trials:
            if t.queries != t.n * t.positives:
                problems.append(f"{name} trial {t.index}: {t.queries} queries != {t.n} x {t.positives} positives")
            if t.max_locality > report.config["q"]:
                problems.append(f"{name} trial {t.index}: query at distance {t.max_locality}")
    return problems


def _mutate_learning(reports: dict) -> dict:
    name, report = next(iter(reports.items()))
    first = dataclasses.replace(report.trials[0], queries=report.trials[0].queries + 1)
    broken = SuiteReport(report.config, (first, *report.trials[1:]), report.threshold_note)
    return {**reports, name: broken}


def _digest_learning(reports: dict) -> dict:
    return {name: sha256(r.canonical_json()) for name, r in reports.items()}


# ---------------------------------------------------------------------------
# Reconstruction corpus


def _run_corpus(base: int, smoke: bool, inst: Instrument) -> dict:
    count = 100 if smoke else 1000
    report = inst.call(
        "harness.run_reconstruction_corpus", run_reconstruction_corpus, count=count, base_seed=base
    )
    inst.count("harness.corpus_discovery_s", report.seconds_discovery)
    inst.count("harness.corpus_reconstruct_s", report.seconds_reconstruct)
    inst.count("evident.points", report.evident_points)
    return {"corpus": report}


def _check_corpus(reports: dict) -> list[str]:
    r = reports["corpus"]
    problems = []
    if not r.passed:
        problems.append(f"corpus failed: {r.failures[:3]}")
    if r.recon_checked != r.evident_points:
        problems.append(f"{r.recon_checked} reconstructions for {r.evident_points} evident points")
    if r.evident_points and set(r.locality_histogram) != {1}:
        problems.append(f"reconstruction queries at distances {sorted(r.locality_histogram)}")
    return problems


def _mutate_corpus(reports: dict) -> dict:
    broken = copy.deepcopy(reports["corpus"])
    broken.evident_points += 1
    return {"corpus": broken}


def _digest_dict(reports: dict) -> dict:
    return {name: sha256(json.dumps(r.to_dict(), sort_keys=True)) for name, r in reports.items()}


# ---------------------------------------------------------------------------
# Reduction matrix


def _run_reductions(base: int, smoke: bool, inst: Instrument) -> dict:
    report = inst.call("harness.run_reduction_suite", run_reduction_suite, base_seed=base)
    return {"reductions": report}


def _check_reductions(reports: dict) -> list[str]:
    r = reports["reductions"]
    problems = []
    if not r.passed:
        failed = [c.get("fixture", c.get("check")) for c in r.constructions + r.size_checks if not c["passed"]]
        problems.append(f"reduction matrix failed: {failed}, {r.simulation_mismatches} mismatches")
    names = {c["name"] for c in r.constructions}
    if names != SHIPPED_REDUCTIONS:
        problems.append(f"constructions verified: {sorted(names)}")
    if len(r.negative_controls) != 3 or not all(c["counterexamples"] for c in r.negative_controls):
        problems.append("a negative control came without counterexamples")
    if r.simulation_queries < 1:
        problems.append("no synthesized answers")
    return problems


def _mutate_reductions(reports: dict) -> dict:
    broken = copy.deepcopy(reports["reductions"])
    broken.constructions[0]["passed"] = False
    return {"reductions": broken}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # Seconds one verdict takes on the reference host (2 cores, Python 3.11).
    nominal_s: float
    run: Callable[[int, bool, Instrument], dict]
    check: Callable[[dict], list[str]]
    mutate: Callable[[dict], dict]
    digests: Callable[[dict], dict]
    formula_items: bool = False

    def instrument(self, clock, tracer=None) -> Instrument:
        return Instrument(clock, tracer, formula_items=self.formula_items)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "learn-dense",
            42, 15.0, _run_learning(wide=False), _check_learning, _mutate_learning, _digest_learning,
        ),
        Workload(
            "learn-wide",
            42, 14.0, _run_learning(wide=True), _check_learning, _mutate_learning, _digest_learning,
        ),
        Workload(
            "corpus",
            20260811, 3.5, _run_corpus, _check_corpus, _mutate_corpus, _digest_dict,
            formula_items=True,
        ),
        Workload(
            "reduce-matrix",
            3, 3.5, _run_reductions, _check_reductions, _mutate_reductions, _digest_dict,
        ),
    )
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def check(workload: Workload, base: int, smoke: bool, reports: dict, golden: dict) -> list[str]:
    """Every problem with one verdict's reports; empty means correct."""
    problems = workload.check(reports)
    expected = None if smoke else golden.get(workload.name, {}).get(str(base))
    if expected is not None and workload.digests(reports) != expected:
        problems.append(f"canonical report digests differ from golden for base seed {base}")
    return problems
