"""Locality-neutralizing reductions between concept classes, with verifiers.

A reduction here is an injective coordinate map phi from {-1,+1}^n into a
larger cube together with a concept transform h -> h' such that
h = h' o phi. Two kinds are distinguished by how h' behaves on points
near the image of phi:

* kind "A": every point within distance q of the image, other than image
  points themselves, is labeled 1;
* kind "B": every point within distance q of the image has a unique
  nearest source point, and carries that point's label.

Either way, answers to q-local membership queries around mapped training
data become predictable, which is what ``simulate_pac_from_local``
exploits to run a query-using learner without access to the target.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

from .concepts import (
    Concept,
    DecisionTree,
    Dfa,
    DnfFormula,
    Junta,
    JUNTA_CAP,
    Leaf,
    Node,
    SparsePoly,
    SparsePtf,
    Term,
    TreeNode,
    maj_poly,
)
from .cube import CubePoint, DimensionMismatch, ball_size, masks_at_distance
from .distributions import LabeledSample
from .oracle import LocalMQOracle

TREE_LEAF_CAP = 32768
POLY_COEFF_CAP = 1 << 16
FLIP_RADIUS_CAP = 3  # the verifier walks at most this many flips around an image
FLIP_ENUM_BUDGET = 5_000_000


# ---------------------------------------------------------------------------
# Coordinate maps


@dataclass(frozen=True)
class ReplicateMap:
    """Each source coordinate expanded into k adjacent copies.

    Source coordinate i lands on target coordinates (i-1)*k+1 .. i*k, so
    Hamming distances scale exactly by k.
    """

    source_n: int
    k: int
    _expand: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.source_n < 1 or self.k < 1:
            raise ValueError(f"need positive dimension and factor, got n={self.source_n}, k={self.k}")
        n, k, target = self.source_n, self.k, self.source_n * self.k
        block = (1 << k) - 1
        expand = tuple(block << (target - i * k) for i in range(1, n + 1))
        object.__setattr__(self, "_expand", expand)

    @property
    def target_n(self) -> int:
        return self.source_n * self.k

    def apply(self, x: CubePoint) -> CubePoint:
        if x.n != self.source_n:
            raise DimensionMismatch(f"map expects dimension {self.source_n}, point has {x.n}")
        mask = 0
        for i in range(1, self.source_n + 1):
            if (x.mask >> (self.source_n - i)) & 1:
                mask |= self._expand[i - 1]
        return CubePoint(self.target_n, mask)

    def decode(self, mask: int) -> int:
        """Source mask whose image is nearest to the target mask: each block's majority bit.

        A tied block (even k) decodes to 0; no point within k/2 of an image has one.
        """
        k, half, block = self.k, self.k // 2, (1 << self.k) - 1
        source = 0
        for shift in range(self.target_n - k, -1, -k):
            source = (source << 1) | (((mask >> shift) & block).bit_count() > half)
        return source

    def block_coordinates(self, i: int) -> range:
        """Target coordinates carrying source coordinate i."""
        return range((i - 1) * self.k + 1, i * self.k + 1)


@dataclass(frozen=True)
class ComposedConcept:
    """h' composed with a coordinate map: evaluates h'(phi(x))."""

    inner: Concept
    phi: ReplicateMap

    @property
    def n(self) -> int:
        return self.phi.source_n

    def evaluate(self, x: CubePoint) -> int:
        return self.inner.evaluate(self.phi.apply(x))


@dataclass(frozen=True)
class QReduction:
    """A coordinate map with its locality budget, kind, and concept transform.

    Images lie at least k (the replication factor) apart. Kind A needs q < k,
    so no image is within q of another; kind B needs 2q < k, so no point is
    within q of two images.
    """

    name: str
    kind: str
    phi: ReplicateMap
    q: int
    transform: Callable[[Concept], Concept]

    def __post_init__(self) -> None:
        if self.kind not in ("A", "B"):
            raise ValueError(f"kind must be 'A' or 'B', got {self.kind!r}")
        if self.q < 0:
            raise ValueError(f"locality budget must be non-negative, got {self.q}")
        spread = self.q if self.kind == "A" else 2 * self.q
        if spread >= self.phi.k:
            raise ValueError(f"kind {self.kind} at q={self.q} needs k > {spread}, got k={self.phi.k}")


# ---------------------------------------------------------------------------
# DNF construction (kind A, replication factor n^2)


def build_detector(n: int, k: int | None = None) -> DnfFormula:
    """DNF over k*n variables firing iff some replication block is non-constant.

    For each source coordinate block, adjacent copy pairs are compared in
    both polarities: 2 * n * (k - 1) two-literal terms. The default
    replication factor k = n^2 puts the formula over n^3 variables.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    k = n * n if k is None else k
    terms = []
    for i in range(1, n + 1):
        base = (i - 1) * k
        for j in range(1, k):
            a, b = base + j, base + j + 1
            terms.append(Term(frozenset({a}), frozenset({b})))
            terms.append(Term(frozenset({b}), frozenset({a})))
    return DnfFormula(n * k, tuple(terms))


def _lift_terms_to_block_heads(formula: DnfFormula, k: int) -> tuple[Term, ...]:
    """Re-index each term onto the first coordinate of its variable's block."""
    lifted = []
    for t in formula.terms:
        pos = frozenset((i - 1) * k + 1 for i in t.positives)
        neg = frozenset((i - 1) * k + 1 for i in t.negatives)
        lifted.append(Term(pos, neg))
    return tuple(lifted)


def reduce_dnf_type_a(formula: DnfFormula, k: int | None = None) -> DnfFormula:
    """Transform a DNF over n variables into one over k*n variables.

    Original terms read the first coordinate of each block; the detector
    terms force label 1 on any point with a non-constant block, which
    covers the whole near-image region. Defaults to k = n^2.
    """
    n = formula.n
    k = n * n if k is None else k
    lifted = _lift_terms_to_block_heads(formula, k)
    return DnfFormula(n * k, lifted + build_detector(n, k).terms)


# ---------------------------------------------------------------------------
# DFA construction (kind A)


def build_block_checker(n: int, k: int | None = None) -> Dfa:
    """Automaton accepting exactly the length-k*n strings with a non-constant block.

    Tracks the position inside the current block and the block's first bit;
    one absorbing accept state flags the first mismatch. At most 2k + 2
    states, so 2*n^2 + 2 at the default replication factor.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    k = n * n if k is None else k
    init, acc = "init", "acc"
    states: list = [init, acc]
    transitions: dict = {(acc, -1): acc, (acc, 1): acc}
    for first in (-1, 1):
        for pos in range(1, k + 1):
            states.append((pos, first))
    for first in (-1, 1):
        for pos in range(1, k + 1):
            for b in (-1, 1):
                if pos == k:
                    transitions[((pos, first), b)] = (1, b)
                elif b == first:
                    transitions[((pos, first), b)] = (pos + 1, first)
                else:
                    transitions[((pos, first), b)] = acc
    for b in (-1, 1):
        transitions[(init, b)] = (1, b)
    return Dfa(tuple(states), init, frozenset({acc}), transitions, n * k)


def build_block_simulator(automaton: Dfa, n: int, k: int | None = None) -> Dfa:
    """Automaton over length-k*n strings running the source machine once per block.

    States are (source state, position in block); the source transition is
    applied on each block's final symbol, so on replicated inputs the run
    agrees with the source automaton. Exactly |states| * k states, with
    k = n^2 by default.
    """
    if automaton.length != n:
        raise ValueError(f"source automaton reads length {automaton.length}, expected {n}")
    k = n * n if k is None else k
    states = tuple((s, i) for s in automaton.states for i in range(1, k + 1))
    transitions: dict = {}
    for s in automaton.states:
        for i in range(1, k + 1):
            for b in (-1, 1):
                if i < k:
                    transitions[((s, i), b)] = (s, i + 1)
                else:
                    transitions[((s, i), b)] = (automaton.transitions[(s, b)], 1)
    accepting = frozenset((s, i) for s in automaton.accepting for i in range(1, k + 1))
    return Dfa(states, (automaton.start, 1), accepting, transitions, n * k)


def dfa_product_or(a1: Dfa, a2: Dfa) -> Dfa:
    """Pair construction accepting iff either machine accepts."""
    if a1.length != a2.length:
        raise DimensionMismatch(f"input lengths differ: {a1.length} vs {a2.length}")
    states = tuple((s1, s2) for s1 in a1.states for s2 in a2.states)
    transitions = {
        ((s1, s2), b): (a1.transitions[(s1, b)], a2.transitions[(s2, b)])
        for s1 in a1.states
        for s2 in a2.states
        for b in (-1, 1)
    }
    accepting = frozenset(
        (s1, s2) for s1 in a1.states for s2 in a2.states
        if s1 in a1.accepting or s2 in a2.accepting
    )
    return Dfa(states, (a1.start, a2.start), accepting, transitions, a1.length)


def reduce_dfa_type_a(automaton: Dfa, k: int | None = None) -> Dfa:
    n = automaton.length
    k = n * n if k is None else k
    return dfa_product_or(build_block_checker(n, k), build_block_simulator(automaton, n, k))


# ---------------------------------------------------------------------------
# Kind-B constructions: majority over 2*q0+1 copies absorbs q0 flips


def majority_label(labels: Sequence[int]) -> int:
    """Majority of an odd-length 0/1 sequence."""
    if len(labels) % 2 == 0:
        raise ValueError(f"need an odd count for a strict majority, got {len(labels)}")
    return 1 if sum(labels) * 2 > len(labels) else 0


def reduce_junta_type_b(junta: Junta, q0: int) -> Junta:
    """Junta over (2*q0+1)*n variables applying the source to block majorities."""
    if q0 < 0:
        raise ValueError(f"q0 must be non-negative, got {q0}")
    r = 2 * q0 + 1
    k = junta.k
    k_new = r * k
    if k_new > JUNTA_CAP:
        raise ValueError(f"reduced junta would depend on {k_new} variables, cap is {JUNTA_CAP}")
    relevant = tuple((i - 1) * r + c for i in junta.relevant for c in range(1, r + 1))
    half = r // 2
    table = []
    for m in range(1 << k_new):
        idx = 0
        for t in range(k):
            chunk = (m >> (k_new - (t + 1) * r)) & ((1 << r) - 1)
            idx = (idx << 1) | (chunk.bit_count() > half)
        table.append(junta.table[idx])
    return Junta(junta.n * r, relevant, tuple(table))


def _stack_tree(tree: DecisionTree, q0: int, label_rule: Callable[[tuple[int, ...]], int]) -> DecisionTree:
    """Chain 2*q0+1 renamed replicas of the tree; leaves combine path outcomes."""
    r = 2 * q0 + 1

    def rename(var: int, copy: int) -> int:
        return (var - 1) * r + copy

    def build(node: TreeNode, copy: int, outcomes: tuple[int, ...]) -> TreeNode:
        if isinstance(node, Leaf):
            collected = outcomes + (node.label,)
            if copy == r:
                return Leaf(label_rule(collected))
            return build(tree.root, copy + 1, collected)
        return Node(
            rename(node.var, copy),
            build(node.low, copy, outcomes),
            build(node.high, copy, outcomes),
        )

    return DecisionTree(tree.n * r, build(tree.root, 1, ()))


def reduce_tree_type_b(tree: DecisionTree, q0: int) -> DecisionTree:
    """Decision tree over (2*q0+1)*n variables taking the majority over copies.

    Leaf count is exactly leafcount(tree) ** (2*q0+1).
    """
    if q0 < 0:
        raise ValueError(f"q0 must be non-negative, got {q0}")
    r = 2 * q0 + 1
    if tree.leaf_count ** r > TREE_LEAF_CAP:
        raise ValueError(
            f"stacked tree would have {tree.leaf_count ** r} leaves, cap is {TREE_LEAF_CAP}"
        )
    return _stack_tree(tree, q0, majority_label)


def reduce_poly_type_b(poly: SparsePoly, q0: int) -> SparsePoly:
    """Substitute the block majority polynomial for every variable and expand.

    Blocks are disjoint, so the expansion stays multilinear; the degree
    grows by a factor of at most 2*q0+1.
    """
    if q0 < 0:
        raise ValueError(f"q0 must be non-negative, got {q0}")
    r = 2 * q0 + 1
    maj = maj_poly(r)
    result: dict[frozenset[int], Fraction] = {}
    for vars_, coeff in poly.monomials.items():
        partial: dict[frozenset[int], Fraction] = {frozenset(): coeff}
        for i in sorted(vars_):
            base = (i - 1) * r
            shifted = [(frozenset(base + c for c in u), cu) for u, cu in maj.monomials.items()]
            grown: dict[frozenset[int], Fraction] = {}
            for acc_vars, acc_coeff in partial.items():
                for u_vars, u_coeff in shifted:
                    grown[acc_vars | u_vars] = acc_coeff * u_coeff
            partial = grown
            if len(partial) > POLY_COEFF_CAP:
                raise ValueError(f"expansion exceeds coefficient cap {POLY_COEFF_CAP}")
        for new_vars, new_coeff in partial.items():
            result[new_vars] = result.get(new_vars, Fraction(0)) + new_coeff
        if len(result) > POLY_COEFF_CAP:
            raise ValueError(f"expansion exceeds coefficient cap {POLY_COEFF_CAP}")
    return SparsePoly(poly.n * r, result)


def reduce_ptf_type_b(ptf: SparsePtf, q0: int) -> SparsePtf:
    return SparsePtf(reduce_poly_type_b(ptf.poly, q0), ptf.theta)


# ---------------------------------------------------------------------------
# Registry of shipped constructions


CONSTRUCTIONS: dict[str, tuple[str, Callable]] = {
    "dnf": ("A", reduce_dnf_type_a),
    "dfa": ("A", reduce_dfa_type_a),
    "junta": ("B", reduce_junta_type_b),
    "tree": ("B", reduce_tree_type_b),
    "poly": ("B", reduce_poly_type_b),
    "ptf": ("B", reduce_ptf_type_b),
}


def make_reduction(name: str, n: int, *, k: int | None = None, q0: int = 1) -> QReduction:
    """The named construction over source dimension n.

    Kind A replicates each coordinate k times (default n^2) and tolerates
    q = k - 1 flips; kind B takes 2*q0+1 copies and tolerates q = q0. Kind A
    ignores q0 and kind B ignores k.
    """
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}, expected one of {sorted(CONSTRUCTIONS)}")
    kind, reduce = CONSTRUCTIONS[name]
    if kind == "A":
        k = n * n if k is None else k
        return QReduction(name, kind, ReplicateMap(n, k), k - 1, lambda h: reduce(h, k))
    return QReduction(name, kind, ReplicateMap(n, 2 * q0 + 1), q0, lambda h: reduce(h, q0))


# ---------------------------------------------------------------------------
# Query synthesis: running a local-query learner without the target


class SynthesizedLabels:
    """The labels a reduction predicts near mapped training data, as a target-cube concept.

    Kind A: a training image keeps its label and any other point is labeled 1.
    Kind B: a point takes the label of the training image its blocks decode to.
    Served through ``LocalMQOracle``, which asks only within q of a training
    image, these agree with ``reduction.transform(h)``.
    """

    def __init__(self, reduction: QReduction, mapped: Sequence[tuple[CubePoint, int]]):
        self.n = reduction.phi.target_n
        self._decode = reduction.phi.decode if reduction.kind == "B" else None
        labels = {z.mask: y for z, y in mapped}
        self._labels = labels if self._decode is None else {self._decode(m): y for m, y in labels.items()}

    def evaluate(self, z: CubePoint) -> int:
        if self._decode is None:
            return self._labels.get(z.mask, 1)
        return self._labels[self._decode(z.mask)]


def simulate_pac_from_local(
    learner: Callable[[LabeledSample, LabeledSample, object], Concept],
    reduction: QReduction,
    s1: LabeledSample,
    s2: LabeledSample,
) -> tuple[ComposedConcept, LocalMQOracle]:
    """Run a local-query learner on mapped samples, synthesizing all answers.

    Returns the learned hypothesis composed back with the map, plus the
    q-local oracle over ``SynthesizedLabels`` whose log allows auditing every
    synthesized answer.
    """
    phi = reduction.phi

    def mapped(s: LabeledSample) -> LabeledSample:
        return LabeledSample(tuple((phi.apply(x), y) for x, y in s))

    m1, m2 = mapped(s1), mapped(s2)
    labels = SynthesizedLabels(reduction, m1.pairs + m2.pairs)
    oracle = LocalMQOracle.for_samples(labels, reduction.q, m1, m2)
    hypothesis = learner(m1, m2, oracle)
    return ComposedConcept(hypothesis, phi), oracle


# ---------------------------------------------------------------------------
# Brute-force verification


@dataclass
class ReductionReport:
    name: str
    kind: str
    source_n: int
    target_n: int
    q: int
    flip_radius: int
    image_checked: int = 0
    ball_checked: int = 0
    image_failures: int = 0
    ball_failures: int = 0
    anchor_failures: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.image_failures == 0 and self.ball_failures == 0 and self.anchor_failures == 0

    def _note(self, kind: str, z: CubePoint, expected, got) -> None:
        if len(self.counterexamples) < 10:
            self.counterexamples.append(
                {"check": kind, "point": z.to_string(), "expected": str(expected), "got": str(got)}
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_reduction(reduction: QReduction, concept: Concept) -> ReductionReport:
    """Exhaustively check a reduction against one source concept.

    Confirms value agreement on the whole image, then walks every point
    obtained by flipping at most min(q, FLIP_RADIUS_CAP) coordinates of an
    image point: kind A requires label 1 off the image, kind B requires the
    point to decode to a source whose image is within q and to carry that
    source's value. Flip enumeration is guarded by the FLIP_ENUM_BUDGET check
    count since the target cube itself is astronomically large.
    """
    phi = reduction.phi
    n, n_target = phi.source_n, phi.target_n
    transformed = reduction.transform(concept)
    radius = min(reduction.q, FLIP_RADIUS_CAP)

    per_point = ball_size(n_target, radius)
    if per_point * (1 << n) > FLIP_ENUM_BUDGET:
        raise ValueError(
            f"flip enumeration needs {per_point * (1 << n)} checks, budget is {FLIP_ENUM_BUDGET}"
        )

    report = ReductionReport(reduction.name, reduction.kind, n, n_target, reduction.q, radius)

    source_points = [CubePoint(n, m) for m in range(1 << n)]
    values = [concept.evaluate(x) for x in source_points]
    image_masks = [phi.apply(x).mask for x in source_points]
    images = set(image_masks)

    for x in source_points:
        z = CubePoint(n_target, image_masks[x.mask])
        got = transformed.evaluate(z)
        report.image_checked += 1
        if got != values[x.mask]:
            report.image_failures += 1
            report._note("image", z, values[x.mask], got)

    seen: set[int] = set()
    for image in image_masks:
        for r in range(1, radius + 1):
            for m in masks_at_distance(image, n_target, r):
                if m in images or m in seen:
                    continue
                seen.add(m)
                z = CubePoint(n_target, m)
                report.ball_checked += 1
                if reduction.kind == "A":
                    got = transformed.evaluate(z)
                    if got != 1:
                        report.ball_failures += 1
                        report._note("ball", z, 1, got)
                else:
                    source = phi.decode(m)
                    distance = (image_masks[source] ^ m).bit_count()
                    if distance > reduction.q:
                        report.anchor_failures += 1
                        report._note("anchor", z, f"decoded image within {reduction.q}", distance)
                        continue
                    expected = values[source]
                    got = transformed.evaluate(z)
                    if got != expected:
                        report.ball_failures += 1
                        report._note("ball", z, expected, got)
    return report


# ---------------------------------------------------------------------------
# Deliberately broken constructions, used as verifier negative controls


def corrupted_dnf_reduction_without_detector(n: int) -> QReduction:
    """DNF reduction missing the non-constant-block detector terms."""

    def transform(formula: DnfFormula) -> DnfFormula:
        return DnfFormula(n ** 3, _lift_terms_to_block_heads(formula, n * n))

    return replace(make_reduction("dnf", n), name="dnf-no-detector", transform=transform)


def corrupted_dfa_reduction_stuck_simulator(n: int) -> QReduction:
    """DFA reduction whose simulator wraps blocks without ever stepping."""

    def broken_simulator(automaton: Dfa) -> Dfa:
        good = build_block_simulator(automaton, n)
        k = n * n
        transitions = dict(good.transitions)
        for s in automaton.states:
            for b in (-1, 1):
                transitions[((s, k), b)] = (s, 1)
        return Dfa(good.states, good.start, good.accepting, transitions, good.length)

    def transform(automaton: Dfa) -> Dfa:
        return dfa_product_or(build_block_checker(n), broken_simulator(automaton))

    return replace(make_reduction("dfa", n), name="dfa-stuck-simulator", transform=transform)


def corrupted_tree_reduction_first_copy(n: int, q0: int) -> QReduction:
    """Tree reduction labeling leaves by the first copy instead of the majority."""

    def transform(tree: DecisionTree) -> DecisionTree:
        return _stack_tree(tree, q0, lambda outcomes: outcomes[0])

    return replace(make_reduction("tree", n, q0=q0), name="tree-first-copy", transform=transform)
