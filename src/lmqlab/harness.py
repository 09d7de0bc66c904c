"""Experiment orchestration only: seeded trials, suites and JSON reports.

Per-trial seeds come from the base seed through SHA-256, and ``run_trial`` derives a trial's streams from its one
seed, so any trial replays alone (``lmqlab learn --seed T`` replays suite trial T); the corpus reads evident points
from ``evident``'s truth tables. ``require_trial_inputs`` is a trial's one gate (sample sizes, locality budget, seed
and the desk-scale cap), called by ``run_trial`` before any draw and by ``ExperimentConfig`` before any trial.
``TrialReport.of`` is a trial's one record, for the suites and ``lmqlab learn`` alike.
Each report's ``to_dict()`` is one ``formats.canonical`` call.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional

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
from .cube import ENUMERATION_CAP, CubePoint, ReplicateMap, count_above, cube_columns, is_int, iter_bits
from .cube import require_at_most, require_count
from .distributions import Distribution, FiniteSupport, UniformCube, exact_loss, mc_loss, pushforward
from .evident import (
    doubling_dnf,
    evident_tables,
    flip_table,
    flips_reveal_term,
    gen_opposite_literal_dnf,
    satisfies_evidently,
)
from .formats import NOTE_CAP, Verdict, canonical, canonical_json
from .learner import LearnerRun, learn_evident_dnf, learn_evident_dnf_run, reconstruct_terms, require_epsilon
from .learner import reconstruct_term  # called nowhere here: perfbench's traced run wraps it under this name
from .oracle import BudgetExhausted, LocalityViolation, LocalMQOracle, draw_training_set, label_masks
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

# Losses are exact on a finite support, and on the cube up to this dimension; Monte Carlo estimates above it.
EXACT_LOSS_MAX_N = 20
MC_SAMPLES = 100_000
# A seed a command takes lies where derive_seed's do, so a negative one names no suite trial.
SEED_RULE = "seed must be a non-negative int, as every derived seed is"

# Random-DNF corpus shape: dimension range, term count and width caps, how
# many evident points get the pointwise flip check, and how often a formula
# is cross-checked pointwise over the whole cube.
CORPUS_N_LO, CORPUS_N_HI = 4, 10
CORPUS_D_MAX = 5
CORPUS_WIDTH_MAX = 4
CORPUS_REVEAL_PER_FORMULA = 20
CORPUS_CROSSCHECK_EVERY = 37


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from a base seed and labels: trial T's instance and streams are ``derive_seed(T, role)``."""
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
    """Random trees pushed through coordinate doubling, with the image distribution.

    The image of the uniform cube depends on n alone and a ``FiniteSupport`` is
    frozen, so each family builds it once per n and every trial at that n shares it.
    """

    image = cache(lambda n: pushforward(UniformCube(n), ReplicateMap(n, 2)))

    def make(seed: int) -> tuple[DnfFormula, Distribution]:
        rng = random.Random(seed)
        n = rng.randint(n_lo, n_hi)
        tree = random_tree(n, rng.randint(2, max_leaves), rng)
        return doubling_dnf(tree), image(n)

    return make


# ---------------------------------------------------------------------------
# Learning suite


def require_trial_inputs(m1: int, m2: int, q: int, seed: int = 0, what="sample sizes m1 + m2") -> None:
    """The one gate for a trial's inputs, each rule once and in this order: sample sizes, with ``sample``'s message;
    the locality budget, with the oracle's; the seed, by ``SEED_RULE``; m1 + m2, named ``what``, at most 2^24 draws."""
    for m in (m1, m2):
        require_count(m, 0, "sample count must be non-negative")
    require_count(q, 0, "locality budget must be non-negative")
    require_count(seed, 0, SEED_RULE)
    require_at_most(what, m1 + m2, 1 << ENUMERATION_CAP)


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
        require_count(self.trials, 1, "trial count must be at least 1")
        require_epsilon(self.epsilon)
        require_trial_inputs(self.m1, self.m2, self.q)  # run_trial's gate, so a suite refuses before any trial
        if self.success_threshold is not None and not is_int(self.success_threshold, 0, self.trials):
            raise ValueError(f"success threshold must lie in 0..{self.trials}, got {self.success_threshold!r}")

    @property
    def threshold(self) -> int:
        if self.success_threshold is not None:
            return self.success_threshold
        return max(1, (3 * self.trials) // 4)

    def describe(self) -> dict:
        return canonical(self, "family", "success_threshold", threshold=self.threshold)


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

    @classmethod
    def of(cls, index: int, seed: int, run: LearnerRun, loss: Fraction, estimator: str, epsilon: float) -> TrialReport:
        """The record of ``run_trial``'s (run, loss, estimator): the one map of a ``LearnerRun`` onto trial fields."""
        stats = run.oracle_stats
        return cls(
            index, seed, run.formula.n, loss, estimator, float(loss) < epsilon, stats.query_count,
            stats.max_locality, stats.distance_histogram, run.positives_seen, run.terms_added, run.terms_pruned,
        )

    def to_dict(self) -> dict:
        return canonical(self, loss_float=float(self.loss))


@dataclass(frozen=True)
class SuiteReport(Verdict):
    config: dict
    trials: tuple[TrialReport, ...]
    threshold_note: str

    @property
    def success_count(self) -> int:
        return sum(1 for t in self.trials if t.success)

    def clauses(self) -> dict[str, bool]:
        return {"success_count": self.success_count >= self.config["threshold"]}

    def to_dict(self) -> dict:
        return canonical(self, success_count=self.success_count, trial_count=len(self.trials), passed=self.passed)

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())


def run_trial(
    target: DnfFormula, dist: Distribution, m1: int, m2: int, q: int, seed: int
) -> tuple[LearnerRun, Fraction, str]:
    """One learning trial: draw s1 and s2, learn with q-local queries, score the loss.

    ``seed`` derives s1, s2 and the Monte Carlo loss, each its own stream ``derive_seed(seed, "s1" | "s2" | "loss")``;
    ``require_trial_inputs`` refuses any bad input before s1 is drawn. Returns the learner's run, the loss and its
    estimator: "exact" for a ``FiniteSupport`` or n <= ``EXACT_LOSS_MAX_N``, else "mc" (which draws its stream only
    when the hypothesis and target differ on their read coordinates, or read more than log2 ``MC_SAMPLES``).
    """
    require_trial_inputs(m1, m2, q, seed)
    s1 = draw_training_set(dist, target, m1, derive_seed(seed, "s1"))
    s2 = draw_training_set(dist, target, m2, derive_seed(seed, "s2"))
    run = learn_evident_dnf_run(s1, s2, LocalMQOracle.for_samples(target, q, s1, s2))
    if isinstance(dist, FiniteSupport) or target.n <= EXACT_LOSS_MAX_N:
        return run, exact_loss(dist, target, run.formula), "exact"
    return run, mc_loss(dist, target, run.formula, MC_SAMPLES, derive_seed(seed, "loss")), "mc"


def run_learning_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Seeded end-to-end trials: draw, learn with 1-local queries, score the loss."""
    trials = []
    for i in range(cfg.trials):
        seed = derive_seed(cfg.base_seed, "trial", i)
        try:
            run, loss, estimator = run_trial(*cfg.family(derive_seed(seed, "instance")), cfg.m1, cfg.m2, cfg.q, seed)
        except (LocalityViolation, BudgetExhausted) as exc:
            # A refused query stays a refusal, so the CLI reports it as bad input.
            exc.args = (f"trial {i} (seed {seed}) failed: {exc}",)
            raise
        except Exception as exc:
            raise RuntimeError(f"trial {i} (seed {seed}) failed: {exc}") from exc
        trials.append(TrialReport.of(i, seed, run, loss, estimator, cfg.epsilon))
    note = (
        f"require >= {cfg.threshold}/{cfg.trials} trials with loss < {cfg.epsilon}; "
        "the per-trial guarantee is 3/4, and a fixed sub-3/4 bar absorbs finite-trial variance"
    )
    return SuiteReport(cfg.describe(), tuple(trials), note)


# ---------------------------------------------------------------------------
# Random-DNF corpus: evident discovery, flip biconditional, reconstruction


@dataclass
class CorpusReport(Verdict):
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

    def clauses(self) -> dict[str, bool]:
        failures = ("biconditional_failures", "reveal_failures", "recon_failures", "crosscheck_mismatches")
        return {"evident_points": self.evident_points > 0, **{name: getattr(self, name) == 0 for name in failures},
                "locality_histogram": set(self.locality_histogram) <= {1}}

    def _note(self, kind: str, **info) -> None:
        if len(self.failures) < NOTE_CAP:
            self.failures.append({"kind": kind, **info})

    def to_dict(self) -> dict:
        return canonical(self, "seconds_discovery", "seconds_reconstruct", passed=self.passed)


def parity_classes(masks: Iterable[int]) -> list[list[int]]:
    """The masks split by popcount parity in one pass, each class in the masks' order, leaving out an empty class.

    A Hamming neighbour has the other parity, so no mask of a class is one flip of another."""
    classes: tuple[list[int], list[int]] = ([], [])
    for mask in masks:
        classes[mask.bit_count() & 1].append(mask)
    return [c for c in classes if c]


def reconstruct_evident(formula: DnfFormula, masks: Iterable[int]) -> tuple[dict, list[LocalMQOracle]]:
    """The term masks ``reconstruct_terms`` recovers at each distinct mask, by mask, and the oracles that answered.

    One 1-local oracle per parity class, anchored at the class's masks, and one ``reconstruct_terms`` call on it.
    No anchor is a flip of another, so every query is at distance 1 and each oracle's histogram is what one-anchor
    oracles at its masks would sum to."""
    terms: dict[int, tuple[int, int]] = {}
    oracles = []
    for centres in parity_classes(masks):
        oracle = LocalMQOracle.from_masks(formula, centres, 1)
        terms.update(zip(centres, reconstruct_terms(oracle, dict.fromkeys(centres, 1))))
        oracles.append(oracle)
    return terms, oracles


def run_reconstruction_corpus(count: int = 1000, base_seed: int = 0) -> CorpusReport:
    """Random-DNF corpus audit of evident points.

    For every formula, evident points are found exhaustively with truth-table
    bitsets and the flip biconditional is checked on all of them for every
    coordinate. The pointwise operations are exercised too: the flip check on
    a deterministic per-formula subsample, the pointwise evident test on a
    deterministic subset of formulas, and term reconstruction through the
    learner's phase 1 (``reconstruct_evident``) on every evident point: one
    1-local oracle per popcount-parity class of the formula's evident points,
    anchored at their masks, so each query is at distance 1 from its point.
    A formula with no evident point builds no oracle. The report passes only
    if some point was checked, and every query was at distance 1.
    """
    require_count(count, 1, "formula count must be at least 1")
    report = CorpusReport()
    t_recon = 0.0
    t0 = time.perf_counter()
    for idx in range(count):
        rng = random.Random(derive_seed(base_seed, "corpus", idx))
        n = rng.randint(CORPUS_N_LO, CORPUS_N_HI)
        formula = random_dnf(n, rng.randint(1, CORPUS_D_MAX), CORPUS_WIDTH_MAX, rng)
        report.formulas += 1
        sat, h_table, evident = evident_tables(formula)

        flip_h = [flip_table(h_table, n, j) for j in range(1, n + 1)]
        for i, ev in enumerate(evident):
            if not ev:
                continue
            term_vars = formula.terms[i].variables
            for j in range(1, n + 1):
                stays = flip_h[j - 1]
                bad = (ev & stays) if j in term_vars else (ev & ~stays)
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

        evident_pairs = [(i, m) for i, ev in enumerate(evident) for m in iter_bits(ev)]
        report.evident_points += len(evident_pairs)

        for i, mask in evident_pairs[:CORPUS_REVEAL_PER_FORMULA]:
            report.reveal_checked += 1
            if not flips_reveal_term(formula, i, mask):
                report.reveal_failures += 1
                report._note("reveal", formula_index=idx, term=i, point=CubePoint(n, mask).to_string())

        if idx % CORPUS_CROSSCHECK_EVERY == 0:
            report.crosscheck_formulas += 1
            for mask in range(1 << n):
                hit = formula.satisfied_indices(mask)
                pointwise = (
                    hit[0]
                    if len(hit) == 1 and satisfies_evidently(formula, hit[0], mask)
                    else None
                )
                via_bits = next(
                    (i for i, ev in enumerate(evident) if (ev >> mask) & 1), None
                )
                if pointwise != via_bits:
                    report.crosscheck_mismatches += 1
                    report._note(
                        "crosscheck", formula_index=idx, point=CubePoint(n, mask).to_string(),
                        pointwise=str(pointwise), bitset=str(via_bits),
                    )

        t1 = time.perf_counter()
        if evident_pairs:
            got, oracles = reconstruct_evident(formula, [mask for _, mask in evident_pairs])
            term_masks = [t.masks(n) for t in formula.terms]
            report.recon_checked += len(evident_pairs)
            for i, mask in evident_pairs:
                if got[mask] != term_masks[i]:
                    report.recon_failures += 1
                    report._note(
                        "reconstruction",
                        formula_index=idx,
                        term=i,
                        point=CubePoint(n, mask).to_string(),
                        got=str(sorted(Term.from_masks(n, *got[mask]).signed())),
                    )
            for oracle in oracles:
                for dist, cnt in oracle.stats().distance_histogram.items():
                    report.locality_histogram[dist] = report.locality_histogram.get(dist, 0) + cnt
        t_recon += time.perf_counter() - t1
    report.seconds_reconstruct = t_recon
    report.seconds_discovery = time.perf_counter() - t0 - t_recon
    return report


# ---------------------------------------------------------------------------
# Reduction suite: constructions, size bounds, query synthesis, negative controls


@dataclass
class ReductionSuiteReport(Verdict):
    constructions: list[dict] = field(default_factory=list)
    size_checks: list[dict] = field(default_factory=list)
    simulation_queries: int = 0
    simulation_mismatches: int = 0
    uniqueness_errors: int = 0
    negative_controls: list[dict] = field(default_factory=list)

    def clauses(self) -> dict[str, bool]:
        return {
            "constructions": all(c["passed"] for c in self.constructions),
            "size_checks": all(c["passed"] for c in self.size_checks),
            "simulation_mismatches": self.simulation_mismatches == 0,
            "uniqueness_errors": self.uniqueness_errors == 0,
            "negative_controls": all(c["detected"] for c in self.negative_controls),
        }

    def to_dict(self) -> dict:
        return canonical(self, passed=self.passed)


def _audit_simulation(
    report: ReductionSuiteReport,
    reduction: QReduction,
    concept,
    dist: Distribution,
    m: int,
    seed: int,
) -> None:
    s1 = draw_training_set(dist, concept, m, derive_seed(seed, "sim-s1"))
    s2 = draw_training_set(dist, concept, m, derive_seed(seed, "sim-s2"))
    transformed = reduction.transform(concept)
    try:
        _, oracle = simulate_pac_from_local(learn_evident_dnf, reduction, s1, s2)
    except LocalityViolation:
        report.uniqueness_errors += 1
        return
    entries = oracle.entries()
    for (_, answer, _, times), label in zip(entries, label_masks(transformed, [mask for mask, *_ in entries])):
        report.simulation_queries += times
        if answer != label:
            report.simulation_mismatches += times


def run_reduction_suite(base_seed: int = 0) -> ReductionSuiteReport:
    """Verification matrix over all shipped constructions at desk scale: each section is rows run by one loop."""
    report = ReductionSuiteReport()
    # Random fixtures are drawn first, in one fixed order, so every row replays from the seed.
    rng = random.Random(derive_seed(base_seed, "reductions"))
    dnf2 = random_dnf(2, 2, 2, rng)
    dnf3 = random_dnf(3, 2, 2, rng)
    dfa2 = random_dfa(2, 3, rng)
    dfa3 = random_dfa(3, 3, rng)
    junta6 = random_junta(6, 3, rng)
    tree42 = random_tree(4, 4, rng)
    tree66 = random_tree(6, 6, rng)
    xor_junta = Junta(4, (1, 2), (0, 1, 1, 0))
    linear4 = SparsePoly(
        4,
        {
            frozenset({1}): Fraction(1, 2),
            frozenset({2}): Fraction(-1, 3),
            frozenset({3}): Fraction(1, 5),
            frozenset(): Fraction(1, 7),
        },
    )
    ptf = SparsePtf(linear4, Fraction(1, 10))
    quadratic = SparsePoly(4, {frozenset({1, 2}): Fraction(1), frozenset({3}): Fraction(2)})
    vote = SparsePtf(SparsePoly(6, {frozenset({j}): Fraction(1) for j in range(1, 7)}), Fraction(0))
    # (construction, n, q0, concept, fixture): replicated-coordinate DNFs and automata
    # (kind A, which takes no q0), then the majority-of-copies constructions (kind B).
    rows = (
        ("dnf", 2, None, DnfFormula(2, (Term.of(1),)), "x1 over n=2"),
        ("dnf", 2, None, dnf2, "random dnf n=2"),
        ("dnf", 3, None, DnfFormula(3, (Term.of(1),)), "x1 over n=3"),
        ("dnf", 3, None, dnf3, "random dnf n=3"),
        ("dfa", 2, None, parity_dfa(2), "parity n=2"),
        ("dfa", 2, None, dfa2, "random dfa n=2"),
        ("dfa", 3, None, parity_dfa(3), "parity n=3"),
        ("dfa", 3, None, dfa3, "random dfa n=3"),
        ("junta", 4, 1, xor_junta, "xor junta n=4 q0=1"),
        ("junta", 4, 2, xor_junta, "xor junta n=4 q0=2"),
        ("junta", 6, 1, junta6, "random junta n=6 q0=1"),
        ("tree", 4, 1, tree42, "random tree n=4 q0=1"),
        ("tree", 4, 2, tree42, "random tree n=4 q0=2"),
        ("tree", 6, 1, tree66, "random tree n=6 q0=1"),
        ("poly", 4, 1, linear4, "linear poly n=4 q0=1"),
        ("poly", 4, 2, linear4, "linear poly n=4 q0=2"),
        ("poly", 4, 1, quadratic, "quadratic poly n=4 q0=1"),
        ("ptf", 4, 1, ptf, "linear ptf n=4 q0=1"),
        ("ptf", 6, 2, vote, "vote ptf n=6 q0=2"),
    )
    for name, n, q0, concept, fixture in rows:
        entry = verify_reduction(make_reduction(name, n, q0=q0), concept).to_dict()
        entry["fixture"] = fixture
        report.constructions.append(entry)

    # Size accounting, as (check, passed, details).
    checks = []
    for n in (2, 3):
        a = parity_dfa(n)
        phi = make_reduction("dfa", n).phi
        simulator = build_block_simulator(a, phi)
        checker = build_block_checker(phi)
        product = dfa_product_or(checker, simulator)
        checks += [
            (
                f"simulator states n={n}",
                simulator.num_states == a.num_states * n * n,
                f"{simulator.num_states} == {a.num_states} * {n * n}",
            ),
            (
                f"product states n={n}",
                product.num_states <= checker.num_states * simulator.num_states,
                f"{product.num_states} <= {checker.num_states * simulator.num_states}",
            ),
        ]
    for q0 in (1, 2):
        r = 2 * q0 + 1
        reduced = make_reduction("tree", 4, q0=q0).transform(tree42)
        grown = make_reduction("poly", 4, q0=q0).transform(linear4)
        degree_ok = grown.degree <= r * max(1, linear4.degree)
        count_ok = grown.coefficient_count <= (1 << r) * linear4.coefficient_count
        checks += [
            (
                f"tree leaves q0={q0}",
                reduced.leaf_count == tree42.leaf_count ** r,
                f"{reduced.leaf_count} == {tree42.leaf_count}^{r}",
            ),
            (
                f"poly growth q0={q0}",
                degree_ok and count_ok,
                f"degree {grown.degree} <= {r}*{linear4.degree}; "
                f"coeffs {grown.coefficient_count} <= 2^{r}*{linear4.coefficient_count}",
            ),
        ]
    for k in (1, 3, 5, 7):
        poly, full, maj = maj_poly(k), (1 << (1 << k)) - 1, count_above(cube_columns(k), k // 2)
        agrees = poly.compare_columns(cube_columns(k), full, [(1, maj), (-1, full ^ maj)])[1] == full
        checks.append(
            (
                f"majority expansion k={k}",
                agrees and poly.coefficient_count <= 1 << k and poly.degree <= k,
                f"{poly.coefficient_count} coefficients, degree {poly.degree}",
            )
        )
    report.size_checks.extend({"check": c, "passed": ok, "details": d} for c, ok, d in checks)

    # Query synthesis audit over both kinds: (construction, n, q0, concept, m1 = m2, seed tag).
    audits = (
        ("dnf", 3, None, DnfFormula(3, (Term.of(1),)), 600, "sim-dnf"),
        ("junta", 4, 1, xor_junta, 500, "sim-junta"),
        ("ptf", 4, 2, ptf, 500, "sim-ptf"),
    )
    for name, n, q0, concept, m, tag in audits:
        reduction = make_reduction(name, n, q0=q0)
        _audit_simulation(report, reduction, concept, UniformCube(n), m, derive_seed(base_seed, tag))

    controls = [
        ("detector dropped", corrupted_dnf_reduction_without_detector(2), DnfFormula(2, (Term.of(1),))),
        ("simulator never steps", corrupted_dfa_reduction_stuck_simulator(2), parity_dfa(2)),
        ("first copy instead of majority", corrupted_tree_reduction_first_copy(2, 1),
         DecisionTree(2, Node(1, Leaf(0), Leaf(1)))),
    ]
    for label, broken, concept in controls:
        result = verify_reduction(broken, concept)
        entry = {"name": label, "detected": not result.passed, "counterexamples": result.counterexamples}
        report.negative_controls.append(entry)
    return report
