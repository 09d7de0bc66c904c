"""Experiment orchestration: seeded trials, verification suites, JSON reports.

Per-trial seeds are derived from the base seed with SHA-256 so any trial
replays in isolation. Reports separate deterministic content (stable under
replay, byte-identical as canonical JSON) from wall-clock timings.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .concepts import (
    DecisionTree,
    DnfFormula,
    Junta,
    Leaf,
    Node,
    SparsePoly,
    SparsePtf,
    Term,
    maj_poly,
    parity_dfa,
    random_dfa,
    random_dnf,
    random_junta,
    random_tree,
)
from .cube import CubePoint, ReplicateMap, enumerate_cube
from .distributions import Distribution, UniformCube, exact_loss, mc_loss, pushforward
from .evident import (
    doubling_dnf,
    flips_reveal_term,
    gen_opposite_literal_dnf,
    satisfies_evidently,
)
from .learner import LearnerRun, learn_evident_dnf, learn_evident_dnf_run, reconstruct_term
from .oracle import BudgetExhausted, LocalityViolation, LocalMQOracle, draw_training_set
from .reductions import (
    QReduction,
    build_block_checker,
    build_block_simulator,
    corrupted_dfa_reduction_stuck_simulator,
    corrupted_dnf_reduction_without_detector,
    corrupted_tree_reduction_first_copy,
    dfa_product_or,
    make_reduction,
    simulate_pac_from_local,
    verify_reduction,
)

# Losses are exact up to this dimension and Monte Carlo estimates above it.
EXACT_LOSS_MAX_N = 20
MC_SAMPLES = 100_000

# Random-DNF corpus shape: dimension range, term count and width caps, how
# many evident points get the pointwise flip check, and how often a formula
# is cross-checked pointwise over the whole cube.
CORPUS_N_LO, CORPUS_N_HI = 4, 10
CORPUS_D_MAX = 5
CORPUS_WIDTH_MAX = 4
CORPUS_REVEAL_PER_FORMULA = 20
CORPUS_CROSSCHECK_EVERY = 37


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed derived from a base seed and labels."""
    text = ":".join([str(base), *map(str, parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# Learning families


def opposite_literal_family(n_lo: int = 4, n_hi: int = 8) -> Callable[[int], tuple[DnfFormula, Distribution]]:
    """Per-seed random pairwise-opposite DNF targets under the uniform distribution."""

    def make(seed: int) -> tuple[DnfFormula, Distribution]:
        rng = random.Random(seed)
        n = rng.randint(n_lo, n_hi)
        width = rng.choice([2, 3])
        d = 2 if width == 2 else rng.randint(2, 4)
        formula = gen_opposite_literal_dnf(n, d, width, seed=rng.randrange(1 << 32))
        return formula, UniformCube(n)

    return make


def doubled_tree_family(
    n_lo: int = 4, n_hi: int = 8, max_leaves: int = 16
) -> Callable[[int], tuple[DnfFormula, Distribution]]:
    """Random trees pushed through coordinate doubling, with the image distribution."""

    def make(seed: int) -> tuple[DnfFormula, Distribution]:
        rng = random.Random(seed)
        n = rng.randint(n_lo, n_hi)
        tree = random_tree(n, rng.randint(2, max_leaves), rng)
        formula = doubling_dnf(tree)
        dist = pushforward(UniformCube(n), ReplicateMap(n, 2))
        return formula, dist

    return make


# ---------------------------------------------------------------------------
# Learning suite


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    family: Callable[[int], tuple[DnfFormula, Distribution]]
    trials: int
    base_seed: int
    epsilon: float
    m1: int
    m2: int
    q: int = 1
    success_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trial count must be at least 1, got {self.trials}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError(f"sample sizes must be non-negative, got m1={self.m1}, m2={self.m2}")
        if self.q < 0:
            raise ValueError(f"locality budget must be non-negative, got {self.q}")

    @property
    def threshold(self) -> int:
        if self.success_threshold is not None:
            return self.success_threshold
        return (3 * self.trials) // 4

    def describe(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "epsilon": self.epsilon,
            "m1": self.m1,
            "m2": self.m2,
            "q": self.q,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class TrialReport:
    index: int
    seed: int
    n: int
    loss: Fraction
    estimator: str
    success: bool
    queries: int
    max_locality: int
    distance_histogram: dict[int, int]
    positives: int
    terms_added: int
    terms_pruned: int

    def canonical_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "n": self.n,
            "loss": str(self.loss),
            "loss_float": float(self.loss),
            "estimator": self.estimator,
            "success": self.success,
            "queries": self.queries,
            "max_locality": self.max_locality,
            "distance_histogram": {str(k): v for k, v in sorted(self.distance_histogram.items())},
            "positives": self.positives,
            "terms_added": self.terms_added,
            "terms_pruned": self.terms_pruned,
        }


@dataclass(frozen=True)
class SuiteReport:
    config: dict
    trials: tuple[TrialReport, ...]
    threshold_note: str

    @property
    def success_count(self) -> int:
        return sum(1 for t in self.trials if t.success)

    @property
    def passed(self) -> bool:
        return self.success_count >= self.config["threshold"]

    def canonical_dict(self) -> dict:
        return {
            "config": self.config,
            "trials": [t.canonical_dict() for t in self.trials],
            "success_count": self.success_count,
            "trial_count": len(self.trials),
            "passed": self.passed,
            "threshold_note": self.threshold_note,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True)


def run_trial(
    target: DnfFormula, dist: Distribution, m1: int, m2: int, q: int, seeds: tuple[int, int, int]
) -> tuple[LearnerRun, Fraction, str]:
    """One learning trial: draw s1 and s2, learn with q-local queries, score the loss.

    ``seeds`` seed s1, s2 and the Monte Carlo loss, in that order. Returns
    the learner's run, the loss and its estimator ("exact" or "mc").
    """
    s1_seed, s2_seed, loss_seed = seeds
    s1 = draw_training_set(dist, target, m1, s1_seed)
    s2 = draw_training_set(dist, target, m2, s2_seed)
    oracle = LocalMQOracle.for_samples(target, q, s1, s2)
    run = learn_evident_dnf_run(s1, s2, oracle)
    if target.n <= EXACT_LOSS_MAX_N:
        return run, exact_loss(dist, target, run.formula), "exact"
    return run, mc_loss(dist, target, run.formula, MC_SAMPLES, loss_seed), "mc"


def run_learning_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Seeded end-to-end trials: draw, learn with 1-local queries, score the loss."""
    trials = []
    for i in range(cfg.trials):
        seed = derive_seed(cfg.base_seed, "trial", i)
        try:
            target, dist = cfg.family(derive_seed(seed, "instance"))
            seeds = (derive_seed(seed, "s1"), derive_seed(seed, "s2"), derive_seed(seed, "loss"))
            run, loss, estimator = run_trial(target, dist, cfg.m1, cfg.m2, cfg.q, seeds)
        except (LocalityViolation, BudgetExhausted) as exc:
            # A refused query stays a refusal, so the CLI reports it as bad input.
            exc.args = (f"trial {i} (seed {seed}) failed: {exc}",)
            raise
        except Exception as exc:
            raise RuntimeError(f"trial {i} (seed {seed}) failed: {exc}") from exc
        stats = run.oracle_stats
        trials.append(
            TrialReport(
                index=i,
                seed=seed,
                n=target.n,
                loss=loss,
                estimator=estimator,
                success=float(loss) < cfg.epsilon,
                queries=stats.query_count,
                max_locality=stats.max_locality,
                distance_histogram=stats.distance_histogram,
                positives=run.positives_seen,
                terms_added=run.terms_added,
                terms_pruned=run.terms_pruned,
            )
        )
    note = (
        f"require >= {cfg.threshold}/{cfg.trials} trials with loss < {cfg.epsilon}; "
        "the per-trial guarantee is 3/4, and a fixed sub-3/4 bar absorbs finite-trial variance"
    )
    return SuiteReport(cfg.describe(), tuple(trials), note)


# ---------------------------------------------------------------------------
# Random-DNF corpus: evident discovery, flip biconditional, reconstruction


@lru_cache(maxsize=None)
def _plus_pattern(n: int, j: int) -> int:
    """Truth-table bitset (indexed by point mask) of the literal x_j = +1."""
    p = n - j
    stride = 1 << p
    period = stride << 1
    unit = ((1 << stride) - 1) << stride
    reps = (1 << n) // period
    geometric = ((1 << (reps * period)) - 1) // ((1 << period) - 1)
    return unit * geometric


def _term_table(term: Term, n: int) -> int:
    full = (1 << (1 << n)) - 1
    table = full
    for j in term.positives:
        table &= _plus_pattern(n, j)
    for j in term.negatives:
        table &= full ^ _plus_pattern(n, j)
    return table


def _flip_table(table: int, n: int, j: int) -> int:
    """Bitset whose entry at x is the entry of the input at x with j flipped."""
    stride = 1 << (n - j)
    full = (1 << (1 << n)) - 1
    low = full ^ _plus_pattern(n, j)
    return ((table >> stride) & low) | ((table & low) << stride)


def _iter_bits(bitset: int):
    while bitset:
        lowest = bitset & -bitset
        yield lowest.bit_length() - 1
        bitset ^= lowest


def _evident_bitsets(formula: DnfFormula) -> tuple[list[int], int, list[int]]:
    """Per-term satisfaction tables, the formula table, and evident-point tables."""
    n = formula.n
    full = (1 << (1 << n)) - 1
    sat = [_term_table(t, n) for t in formula.terms]
    h_table = 0
    for t in sat:
        h_table |= t
    evident = []
    for i, table in enumerate(sat):
        others = 0
        for k, other in enumerate(sat):
            if k != i:
                others |= other
        exactly = table & ~others & full
        ok = (~h_table & full) | exactly
        ev = exactly
        for j in range(1, n + 1):
            if not ev:
                break
            ev &= _flip_table(ok, n, j)
        evident.append(ev)
    return sat, h_table, evident


@dataclass
class CorpusReport:
    formulas: int = 0
    evident_points: int = 0
    biconditional_checks: int = 0
    biconditional_failures: int = 0
    reveal_checked: int = 0
    reveal_failures: int = 0
    recon_checked: int = 0
    recon_failures: int = 0
    crosscheck_formulas: int = 0
    crosscheck_mismatches: int = 0
    locality_histogram: dict[int, int] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    seconds_discovery: float = 0.0
    seconds_reconstruct: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            self.biconditional_failures == 0
            and self.reveal_failures == 0
            and self.recon_failures == 0
            and self.crosscheck_mismatches == 0
        )

    def _note(self, kind: str, **info) -> None:
        if len(self.failures) < 10:
            self.failures.append({"kind": kind, **info})

    def to_dict(self) -> dict:
        return {
            "formulas": self.formulas,
            "evident_points": self.evident_points,
            "biconditional_checks": self.biconditional_checks,
            "biconditional_failures": self.biconditional_failures,
            "reveal_checked": self.reveal_checked,
            "reveal_failures": self.reveal_failures,
            "recon_checked": self.recon_checked,
            "recon_failures": self.recon_failures,
            "crosscheck_formulas": self.crosscheck_formulas,
            "crosscheck_mismatches": self.crosscheck_mismatches,
            "locality_histogram": {str(k): v for k, v in sorted(self.locality_histogram.items())},
            "passed": self.passed,
            "failures": self.failures,
        }


def run_reconstruction_corpus(count: int = 1000, base_seed: int = 0) -> CorpusReport:
    """Random-DNF corpus audit of evident points.

    For every formula, evident points are found exhaustively with truth-table
    bitsets and the flip biconditional is checked on all of them for every
    coordinate. The pointwise operations are exercised too: the flip check on
    a deterministic per-formula subsample, the pointwise evident test on a
    deterministic subset of formulas, and term reconstruction through a real
    1-local oracle on every evident point.
    """
    if count < 1:
        raise ValueError(f"formula count must be at least 1, got {count}")
    report = CorpusReport()
    t_recon = 0.0
    t0 = time.perf_counter()
    for idx in range(count):
        rng = random.Random(derive_seed(base_seed, "corpus", idx))
        n = rng.randint(CORPUS_N_LO, CORPUS_N_HI)
        formula = random_dnf(n, rng.randint(1, CORPUS_D_MAX), CORPUS_WIDTH_MAX, rng)
        report.formulas += 1
        sat, h_table, evident = _evident_bitsets(formula)

        full = (1 << (1 << n)) - 1
        flip_h = [_flip_table(h_table, n, j) for j in range(1, n + 1)]
        for i, ev in enumerate(evident):
            if not ev:
                continue
            term_vars = formula.terms[i].variables
            for j in range(1, n + 1):
                stays = flip_h[j - 1]
                bad = (ev & stays) if j in term_vars else (ev & ~stays & full)
                report.biconditional_checks += 1
                if bad:
                    report.biconditional_failures += 1
                    mask = (bad & -bad).bit_length() - 1
                    report._note(
                        "biconditional",
                        formula_index=idx,
                        term=i,
                        coordinate=j,
                        point=CubePoint(n, mask).to_string(),
                    )

        evident_pairs = [(i, m) for i, ev in enumerate(evident) for m in _iter_bits(ev)]
        report.evident_points += len(evident_pairs)

        for i, mask in evident_pairs[:CORPUS_REVEAL_PER_FORMULA]:
            report.reveal_checked += 1
            if not flips_reveal_term(formula, i, CubePoint(n, mask)):
                report.reveal_failures += 1
                report._note("reveal", formula_index=idx, term=i, point=CubePoint(n, mask).to_string())

        if idx % CORPUS_CROSSCHECK_EVERY == 0:
            report.crosscheck_formulas += 1
            for point in enumerate_cube(n):
                hit = formula.satisfied_indices(point)
                pointwise = (
                    hit[0]
                    if len(hit) == 1 and satisfies_evidently(formula, hit[0], point)
                    else None
                )
                via_bits = next(
                    (i for i, ev in enumerate(evident) if (ev >> point.mask) & 1), None
                )
                if pointwise != via_bits:
                    report.crosscheck_mismatches += 1
                    report._note(
                        "crosscheck", formula_index=idx, point=point.to_string(),
                        pointwise=str(pointwise), bitset=str(via_bits),
                    )

        t1 = time.perf_counter()
        for i, mask in evident_pairs:
            x = CubePoint(n, mask)
            oracle = LocalMQOracle(formula, [x], q=1)
            got = reconstruct_term(mask, oracle)
            report.recon_checked += 1
            if got != formula.terms[i]:
                report.recon_failures += 1
                report._note(
                    "reconstruction",
                    formula_index=idx,
                    term=i,
                    point=x.to_string(),
                    got=str(sorted(got.signed())),
                )
            for dist, cnt in oracle.stats().distance_histogram.items():
                report.locality_histogram[dist] = report.locality_histogram.get(dist, 0) + cnt
        t_recon += time.perf_counter() - t1
    report.seconds_reconstruct = t_recon
    report.seconds_discovery = time.perf_counter() - t0 - t_recon
    return report


# ---------------------------------------------------------------------------
# Reduction suite: constructions, size bounds, query synthesis, negative controls


@dataclass
class ReductionSuiteReport:
    constructions: list[dict] = field(default_factory=list)
    size_checks: list[dict] = field(default_factory=list)
    simulation_queries: int = 0
    simulation_mismatches: int = 0
    uniqueness_errors: int = 0
    negative_controls: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            all(c["passed"] for c in self.constructions)
            and all(c["passed"] for c in self.size_checks)
            and self.simulation_mismatches == 0
            and self.uniqueness_errors == 0
            and all(c["detected"] for c in self.negative_controls)
        )

    def to_dict(self) -> dict:
        return {
            "constructions": self.constructions,
            "size_checks": self.size_checks,
            "simulation_queries": self.simulation_queries,
            "simulation_mismatches": self.simulation_mismatches,
            "uniqueness_errors": self.uniqueness_errors,
            "negative_controls": self.negative_controls,
            "passed": self.passed,
        }


def _verify_into(report: ReductionSuiteReport, reduction: QReduction, concept, fixture: str) -> None:
    result = verify_reduction(reduction, concept)
    entry = result.to_dict()
    entry["fixture"] = fixture
    report.constructions.append(entry)


def _size_check(report: ReductionSuiteReport, name: str, passed: bool, details: str) -> None:
    report.size_checks.append({"check": name, "passed": passed, "details": details})


def _audit_simulation(
    report: ReductionSuiteReport,
    reduction: QReduction,
    concept,
    dist: Distribution,
    m1: int,
    m2: int,
    seed: int,
) -> None:
    s1 = draw_training_set(dist, concept, m1, derive_seed(seed, "sim-s1"))
    s2 = draw_training_set(dist, concept, m2, derive_seed(seed, "sim-s2"))
    transformed = reduction.transform(concept)
    try:
        _, oracle = simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)
    except LocalityViolation:
        report.uniqueness_errors += 1
        return
    for mask, answer, _, times in oracle.entries():
        report.simulation_queries += times
        if answer != transformed.label(mask):
            report.simulation_mismatches += times


def run_reduction_suite(base_seed: int = 0) -> ReductionSuiteReport:
    """Verification matrix over all shipped constructions at desk scale."""
    report = ReductionSuiteReport()
    rng = random.Random(derive_seed(base_seed, "reductions"))

    # Replicated-coordinate DNFs, label-1 near image.
    for n in (2, 3):
        _verify_into(report, make_reduction("dnf", n), DnfFormula(n, (Term.of(1),)), f"x1 over n={n}")
        _verify_into(report, make_reduction("dnf", n), random_dnf(n, 2, 2, rng), f"random dnf n={n}")

    # Automata through the checker/simulator product.
    for n in (2, 3):
        _verify_into(report, make_reduction("dfa", n), parity_dfa(n), f"parity n={n}")
        _verify_into(report, make_reduction("dfa", n), random_dfa(n, 3, rng), f"random dfa n={n}")

    # Majority-of-copies constructions, nearest-anchor labels.
    xor_junta = Junta(4, (1, 2), (0, 1, 1, 0))
    _verify_into(report, make_reduction("junta", 4, q0=1), xor_junta, "xor junta n=4 q0=1")
    _verify_into(report, make_reduction("junta", 4, q0=2), xor_junta, "xor junta n=4 q0=2")
    _verify_into(report, make_reduction("junta", 6, q0=1), random_junta(6, 3, rng), "random junta n=6 q0=1")

    tree42 = random_tree(4, 4, rng)
    _verify_into(report, make_reduction("tree", 4, q0=1), tree42, "random tree n=4 q0=1")
    _verify_into(report, make_reduction("tree", 4, q0=2), tree42, "random tree n=4 q0=2")
    _verify_into(report, make_reduction("tree", 6, q0=1), random_tree(6, 6, rng), "random tree n=6 q0=1")

    linear4 = SparsePoly(
        4,
        {
            frozenset({1}): Fraction(1, 2),
            frozenset({2}): Fraction(-1, 3),
            frozenset({3}): Fraction(1, 5),
            frozenset(): Fraction(1, 7),
        },
    )
    _verify_into(report, make_reduction("poly", 4, q0=1), linear4, "linear poly n=4 q0=1")
    _verify_into(report, make_reduction("poly", 4, q0=2), linear4, "linear poly n=4 q0=2")
    quadratic = SparsePoly(4, {frozenset({1, 2}): Fraction(1), frozenset({3}): Fraction(2)})
    _verify_into(report, make_reduction("poly", 4, q0=1), quadratic, "quadratic poly n=4 q0=1")
    ptf = SparsePtf(linear4, Fraction(1, 10))
    _verify_into(report, make_reduction("ptf", 4, q0=1), ptf, "linear ptf n=4 q0=1")
    _verify_into(report, make_reduction("ptf", 6, q0=2), SparsePtf(
        SparsePoly(6, {frozenset({j}): Fraction(1) for j in range(1, 7)}), Fraction(0)
    ), "vote ptf n=6 q0=2")

    # Size accounting.
    for n in (2, 3):
        a = parity_dfa(n)
        phi = make_reduction("dfa", n).phi
        simulator = build_block_simulator(a, phi)
        _size_check(
            report,
            f"simulator states n={n}",
            simulator.num_states == a.num_states * n * n,
            f"{simulator.num_states} == {a.num_states} * {n * n}",
        )
        checker = build_block_checker(phi)
        product = dfa_product_or(checker, simulator)
        _size_check(
            report,
            f"product states n={n}",
            product.num_states <= checker.num_states * simulator.num_states,
            f"{product.num_states} <= {checker.num_states * simulator.num_states}",
        )
    for q0 in (1, 2):
        r = 2 * q0 + 1
        reduced = make_reduction("tree", 4, q0=q0).transform(tree42)
        _size_check(
            report,
            f"tree leaves q0={q0}",
            reduced.leaf_count == tree42.leaf_count ** r,
            f"{reduced.leaf_count} == {tree42.leaf_count}^{r}",
        )
        grown = make_reduction("poly", 4, q0=q0).transform(linear4)
        degree_ok = grown.degree <= r * max(1, linear4.degree)
        count_ok = grown.coefficient_count <= (1 << r) * linear4.coefficient_count
        _size_check(
            report,
            f"poly growth q0={q0}",
            degree_ok and count_ok,
            f"degree {grown.degree} <= {r}*{linear4.degree}; "
            f"coeffs {grown.coefficient_count} <= 2^{r}*{linear4.coefficient_count}",
        )
    for k in (1, 3, 5, 7):
        poly = maj_poly(k)
        half = k // 2
        agrees = all(poly.value(m) == (1 if m.bit_count() > half else -1) for m in range(1 << k))
        _size_check(
            report,
            f"majority expansion k={k}",
            agrees and poly.coefficient_count <= 1 << k and poly.degree <= k,
            f"{poly.coefficient_count} coefficients, degree {poly.degree}",
        )

    # Query synthesis audit over both kinds.
    _audit_simulation(
        report,
        make_reduction("dnf", 3),
        DnfFormula(3, (Term.of(1),)),
        UniformCube(3),
        600,
        600,
        derive_seed(base_seed, "sim-dnf"),
    )
    _audit_simulation(
        report,
        make_reduction("junta", 4, q0=1),
        xor_junta,
        UniformCube(4),
        500,
        500,
        derive_seed(base_seed, "sim-junta"),
    )
    _audit_simulation(
        report,
        make_reduction("ptf", 4, q0=2),
        ptf,
        UniformCube(4),
        500,
        500,
        derive_seed(base_seed, "sim-ptf"),
    )

    controls = [
        ("detector dropped", corrupted_dnf_reduction_without_detector(2), DnfFormula(2, (Term.of(1),))),
        ("simulator never steps", corrupted_dfa_reduction_stuck_simulator(2), parity_dfa(2)),
        ("first copy instead of majority", corrupted_tree_reduction_first_copy(2, 1),
         DecisionTree(2, Node(1, Leaf(0), Leaf(1)))),
    ]
    for label, broken, concept in controls:
        result = verify_reduction(broken, concept)
        report.negative_controls.append(
            {
                "name": label,
                "detected": not result.passed,
                "counterexamples": result.counterexamples,
            }
        )
    return report
