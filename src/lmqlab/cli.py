"""Command-line interface: learn, check-evident, verify-reduction, suite.

``learn`` runs one ``harness.run_trial`` and prints the fields its ``TrialReport`` shares with a suite trial, plus
its inputs, so ``learn --seed T`` replays suite trial T; it refuses ``--auto-plan`` with ``--m1`` or ``--m2`` first,
and ``harness.require_trial_inputs`` refuses a negative size, ``--q`` or seed and sizes over the desk-scale cap
before any draw (``--auto-plan`` calls it first, to point at ``--m1`` and ``--m2``); ``verify-reduction`` refuses a
negative seed by the same rule. ``suite`` builds every config ``--family`` selects, each through the same gate, and
checks ``--corpus-count`` before any suite runs, whatever ``--which`` selects, then prints each ``to_dict()``.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import partial
from pathlib import Path
from typing import NoReturn

from .cube import require_count
from .evident import evidence_report
from .formats import canonical_json, dump_dnf, parse_distribution, parse_dnf, parse_fraction
from .harness import (
    SEED_RULE,
    ExperimentConfig,
    TrialReport,
    derive_seed,
    doubled_tree_family,
    opposite_literal_family,
    require_trial_inputs,
    run_learning_suite,
    run_reconstruction_corpus,
    run_reduction_suite,
    run_trial,
)
from .learner import plan_samples, require_epsilon
from .oracle import BudgetExhausted, LocalityViolation
from .reductions import CONSTRUCTIONS, make_reduction, verify_reduction

# Keys a suite config file may set; each stands for the suite flag of that name.
CONFIG_KEYS = ("which", "family", "trials", "seed", "epsilon", "m1", "m2", "q", "corpus_count")
# Suite families: (--family value, report name, factory).
FAMILIES = (("opposite", "opposite-literal", opposite_literal_family), ("doubled", "doubled-tree", doubled_tree_family))
# Keys of a trial record (``TrialReport.to_dict``) that a learn line shares with a suite trial.
LEARN_KEYS = ("loss", "loss_float", "estimator", "queries", "max_locality", "positives", "terms_added", "terms_pruned")


class _Parser(argparse.ArgumentParser):
    """Bad input, a malformed command line included, ends in one JSON line on stderr and exit 2."""

    def error(self, message: str, kind: str = "ArgumentError") -> NoReturn:
        self.exit(2, canonical_json({"error": message, "type": kind}) + "\n")


def _emit(payload: dict | list, out: str | None) -> None:
    lines = payload if isinstance(payload, list) else [payload]
    text = "\n".join(map(canonical_json, lines)) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_learn(args: argparse.Namespace) -> list:
    if args.auto_plan and (args.m1, args.m2) != (None, None):
        raise ValueError("--auto-plan derives m1 and m2: pass --auto-plan or --m1 and --m2, not both")
    target = parse_dnf(Path(args.target).read_text())
    dist = parse_distribution(args.dist)
    require_epsilon(args.epsilon)
    m1, m2 = args.m1, args.m2
    if args.auto_plan:
        plan = plan_samples(target.n, args.epsilon)
        m1, m2 = plan.m1, plan.m2
        require_trial_inputs(m1, m2, args.q, what=f"--auto-plan sample sizes m1={m1} + m2={m2} (pass --m1 and --m2)")
    elif m1 is None or m2 is None:
        raise ValueError("provide --m1 and --m2, or --auto-plan")
    run, loss, estimator = run_trial(target, dist, m1, m2, args.q, args.seed)
    record = TrialReport.of(0, args.seed, run, loss, estimator, args.epsilon).to_dict()
    inputs = {"hypothesis": dump_dnf(run.formula).splitlines(), "epsilon": args.epsilon, "m1": m1, "m2": m2}
    _emit({key: record[key] for key in LEARN_KEYS} | inputs, args.out)
    return []


def _cmd_check_evident(args: argparse.Namespace) -> list:
    formula = parse_dnf(Path(args.formula).read_text())
    dist = parse_distribution(args.dist)
    beta = parse_fraction(args.beta) if args.beta else None
    report = evidence_report(formula, dist, beta)
    _emit(report.to_dict(), args.out)
    return [report]


def _cmd_verify_reduction(args: argparse.Namespace) -> list:
    require_count(args.seed, 0, SEED_RULE)
    construction = CONSTRUCTIONS[args.construction]
    reduction = make_reduction(args.construction, args.n, k=args.k, q0=args.q0)
    if args.concept:
        concept = construction.parse(Path(args.concept).read_text())
    else:
        concept = construction.example(args.n, random.Random(derive_seed(args.seed, "fixture")))
    report = verify_reduction(reduction, concept)
    _emit(report.to_dict(), args.out)
    return [report]


def _config_flags(path: str) -> list[str]:
    """The suite flags a ``key = value`` config file stands for."""
    flags = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"malformed config line (expected key = value): {raw!r}")
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}, expected one of {', '.join(CONFIG_KEYS)}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _cmd_suite(args: argparse.Namespace) -> list:
    configs = [
        ExperimentConfig(name, factory(), args.trials, args.seed, args.epsilon, args.m1, args.m2, args.q)
        for flag, name, factory in FAMILIES
        if args.family in (flag, "both")
    ]
    require_count(args.corpus_count, 1, "formula count must be at least 1")  # run_reconstruction_corpus's rule
    suites = [("learning", partial(run_learning_suite, cfg)) for cfg in configs] + [
        ("corpus", partial(run_reconstruction_corpus, args.corpus_count, args.seed)),
        ("reductions", partial(run_reduction_suite, args.seed)),
    ]
    reports = [run() for which, run in suites if args.which in (which, "all")]
    _emit([report.to_dict() for report in reports], args.out)
    return reports


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lmqlab",
        description="Learning with Hamming-local membership queries: learner, verifiers, suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="run the 1-local-query DNF learner on a target formula")
    learn.add_argument("--target", required=True, help="DNF formula file")
    learn.add_argument("--dist", required=True, help="uniform:N | product:p1,...,pN | file:PATH")
    learn.add_argument("--epsilon", type=float, default=0.1)
    learn.add_argument("--m1", type=int)
    learn.add_argument("--m2", type=int)
    learn.add_argument("--auto-plan", action="store_true", help="derive m1/m2 from the guarantee bounds")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--q", type=int, default=1)
    learn.add_argument("--out")
    learn.set_defaults(func=_cmd_learn)

    check = sub.add_parser("check-evident", help="exact per-term evidence rates for a formula")
    check.add_argument("--formula", required=True)
    check.add_argument("--dist", required=True)
    check.add_argument("--beta", help="evidence threshold as a fraction, default 1/n")
    check.add_argument("--out")
    check.set_defaults(func=_cmd_check_evident)

    verify = sub.add_parser("verify-reduction", help="exhaustively verify one reduction")
    verify.add_argument("--construction", required=True, choices=list(CONSTRUCTIONS))
    verify.add_argument("--n", type=int, required=True, help="source dimension")
    verify.add_argument("--q0", type=int, help="flip budget for majority constructions, default 1")
    verify.add_argument("--k", type=int, help="replication factor for dnf/dfa, default n^2")
    verify.add_argument("--concept", help="source concept file; omit for a seeded fixture")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify_reduction)

    suite = sub.add_parser("suite", help="seeded multi-trial suites with JSON-line reports")
    suite.add_argument("--which", choices=["learning", "corpus", "reductions", "all"], default="all")
    suite.add_argument("--family", choices=["opposite", "doubled", "both"], default="both")
    suite.add_argument("--trials", type=int, default=20)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--epsilon", type=float, default=0.1)
    suite.add_argument("--m1", type=int, default=5000)
    suite.add_argument("--m2", type=int, default=50000)
    suite.add_argument("--q", type=int, default=1)
    suite.add_argument("--corpus-count", type=int, default=1000)
    suite.add_argument("--config", help="key = value file overriding the flags above")
    suite.add_argument("--out")
    suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, which returns the reports it printed (``learn`` none): exit 0 if every one passed, 1 if one
    failed, 2 on bad input or a refused query."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.command == "suite" and args.config:
            # Config lines come last, so they override the flags.
            args = parser.parse_args(argv + _config_flags(args.config))
        return 0 if all(report.passed for report in args.func(args)) else 1
    except (ValueError, OSError, LocalityViolation, BudgetExhausted) as exc:
        parser.error(str(exc), type(exc).__name__)


if __name__ == "__main__":
    raise SystemExit(main())
