"""Locality-neutralizing reductions between concept classes, with verifiers.

A reduction here is an injective coordinate map phi from {-1,+1}^n into a larger cube
together with a concept transform h -> h' such that h = h' o phi, applied only by
``QReduction.transform``, which checks the concept's class and both dimensions. Two kinds are distinguished
by how h' behaves on points near the image of phi:

* kind "A": every point within distance q of the image, other than image
  points themselves, is labeled 1;
* kind "B": every point within distance q of the image has a unique
  nearest source point, and carries that point's label.

Either way, answers to q-local membership queries around mapped training
data become predictable, which is what ``simulate_pac_from_local``
exploits to run a query-using learner without access to the target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, NamedTuple

from .concepts import (
    Concept,
    DecisionTree,
    Dfa,
    DnfFormula,
    Junta,
    JUNTA_CAP,
    Leaf,
    MaskConcept,
    Node,
    SparsePoly,
    SparsePtf,
    Term,
    TreeNode,
    maj_poly,
    parity_dfa,
    random_dnf,
    random_junta,
    random_tree,
)
from .cube import CubePoint, ReplicateMap, ball_columns, ball_size, count_above, iter_bits, masks_at_distance
from .cube import recentre, require_at_most, require_count, require_dimension, restrict
from .distributions import LabeledSample
from .formats import NOTE_CAP, Verdict, canonical, parse_dfa, parse_dnf, parse_junta, parse_poly, parse_tree
from .oracle import LocalMQOracle

TREE_LEAF_CAP = 32768
POLY_COEFF_CAP = 1 << 16
FLIP_RADIUS_CAP = 3  # the verifier checks at most this many flips around an image
FLIP_ENUM_BUDGET = 5_000_000
CACHE_SIZE = 8  # entries each map-keyed cache keeps: a matrix uses 7 point sets, 4 simulators and 5 products


@dataclass(frozen=True)
class ComposedConcept(MaskConcept):
    """h' composed with a coordinate map: labels x with h'(phi(x)); an h' off phi's target dimension is refused."""

    inner: Concept
    phi: ReplicateMap

    def __post_init__(self) -> None:
        require_dimension("inner concept", self.inner.n, self.phi.target_n)

    @property
    def n(self) -> int:
        return self.phi.source_n

    def label(self, mask: int) -> int:
        return self.inner.label(self.phi.encode(mask))


@dataclass(frozen=True)
class QReduction:
    """A coordinate map with its locality budget, kind, concept class and ``reduce(h, phi)``, as in ``Construction``.

    Images lie at least k (the replication factor) apart. Kind A needs q < k,
    so no image is within q of another; kind B needs 2q < k, so no point is
    within q of two images.
    """

    name: str
    kind: str
    phi: ReplicateMap
    q: int
    concept: type
    reduce: Callable[[Concept, ReplicateMap], Concept]

    def __post_init__(self) -> None:
        if self.kind not in ("A", "B"):
            raise ValueError(f"kind must be 'A' or 'B', got {self.kind!r}")
        require_count(self.q, 0, "locality budget must be non-negative")
        spread = self.q if self.kind == "A" else 2 * self.q
        if spread >= self.phi.k:
            raise ValueError(f"kind {self.kind} at q={self.q} needs k > {spread}, got k={self.phi.k}")

    def transform(self, h: Concept) -> Concept:
        """``reduce(h, phi)``; an h of another class first, then one off the source dimension, or a result off the
        target's, is refused."""
        if not isinstance(h, self.concept):
            raise ValueError(f"{self.name} reduction transforms a {self.concept.__name__}, got a {type(h).__name__}")
        require_dimension(f"{self.name} concept", h.n, self.phi.source_n)
        transformed = self.reduce(h, self.phi)
        require_dimension("transformed concept", transformed.n, self.phi.target_n)
        return transformed


# ---------------------------------------------------------------------------
# DNF construction (kind A)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_detector(phi: ReplicateMap) -> DnfFormula:
    """DNF over phi's target firing iff some replication block is non-constant.

    For each source coordinate block, adjacent copy pairs are compared in
    both polarities: 2 * n * (k - 1) two-literal terms.
    """
    terms = []
    for i in range(1, phi.source_n + 1):
        block = phi.block_coordinates(i)
        for a, b in zip(block, block[1:]):
            terms.append(Term(frozenset({a}), frozenset({b})))
            terms.append(Term(frozenset({b}), frozenset({a})))
    return DnfFormula(phi.target_n, tuple(terms))


def _lift_to_block_heads(formula: DnfFormula, phi: ReplicateMap) -> DnfFormula:
    """The formula over phi's target, each term re-indexed onto the first coordinate of its variables' blocks."""

    def heads(variables: frozenset[int]) -> frozenset[int]:
        return frozenset(phi.block_coordinates(i)[0] for i in variables)

    return DnfFormula(phi.target_n, tuple(Term(heads(t.positives), heads(t.negatives)) for t in formula.terms))


def reduce_dnf_type_a(formula: DnfFormula, phi: ReplicateMap) -> DnfFormula:
    """Transform a DNF over n variables into one over phi's target.

    Original terms read the first coordinate of each block; the detector
    terms force label 1 on any point with a non-constant block, which
    covers the whole near-image region.
    """
    return DnfFormula(phi.target_n, _lift_to_block_heads(formula, phi).terms + build_detector(phi).terms)


# ---------------------------------------------------------------------------
# DFA construction (kind A)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_block_checker(phi: ReplicateMap) -> Dfa:
    """Automaton accepting exactly the inputs of phi's target length with a non-constant block.

    State 0 starts, state 1 is the absorbing accept state that flags the
    first mismatch, and ``2 * pos + first`` is position ``pos`` (1..k) of
    a block whose first bit is ``first`` (0 for -1, 1 for +1): 2k + 2
    states.
    """
    k = phi.k
    delta = [(2, 3), (1, 1)]
    for pos in range(1, k):
        # A repeat of the first bit moves on; the other bit is a mismatch.
        delta += [(2 * pos + 2, 1), (1, 2 * pos + 3)]
    delta += [(2, 3), (2, 3)]  # position k: the next symbol starts a block
    return Dfa(tuple(delta), 0, frozenset({1}), phi.target_n)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def build_block_simulator(automaton: Dfa, phi: ReplicateMap) -> Dfa:
    """Automaton over phi's target length running the source machine once per block.

    State ``s * k + i`` is source state s at position i (0-based) of a block;
    the source transition is applied on each block's final symbol, so on
    replicated inputs the run agrees with the source automaton. Exactly
    |states| * k states.
    """
    require_dimension("source automaton", automaton.length, phi.source_n)
    k = phi.k
    delta = tuple(
        (s * k + i + 1, s * k + i + 1) if i < k - 1 else (minus * k, plus * k)
        for s, (minus, plus) in enumerate(automaton.delta)
        for i in range(k)
    )
    accepting = frozenset(s * k + i for s in automaton.accepting for i in range(k))
    return Dfa(delta, automaton.start * k, accepting, phi.target_n)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def dfa_product_or(a1: Dfa, a2: Dfa) -> Dfa:
    """Pair construction accepting iff either machine accepts; state ``s1 * |a2| + s2``.

    Every pair is kept, reachable or not, so the state count is |a1| * |a2|.
    """
    require_dimension("second automaton", a2.length, a1.length)
    size = a2.num_states
    delta = tuple((m1 * size + m2, p1 * size + p2) for m1, p1 in a1.delta for m2, p2 in a2.delta)
    accepting = frozenset(
        s1 * size + s2 for s1 in range(a1.num_states) for s2 in range(size)
        if s1 in a1.accepting or s2 in a2.accepting
    )
    return Dfa(delta, a1.start * size + a2.start, accepting, a1.length)


def reduce_dfa_type_a(automaton: Dfa, phi: ReplicateMap) -> Dfa:
    return dfa_product_or(build_block_checker(phi), build_block_simulator(automaton, phi))


# ---------------------------------------------------------------------------
# Kind-B constructions: majority over 2*q0+1 copies absorbs q0 flips


def reduce_junta_type_b(junta: Junta, phi: ReplicateMap) -> Junta:
    """Junta over phi's target applying the source to block majorities."""
    require_at_most("reduced junta relevant variables", junta.k * phi.k, JUNTA_CAP)
    if not junta.relevant:  # a constant has no block to decode
        return Junta(phi.target_n, (), junta.table)
    relevant = tuple(c for i in junta.relevant for c in phi.block_coordinates(i))
    majority = list(map(ReplicateMap(1, phi.k).decode, range(1 << phi.k)))
    sources = [0]
    for _ in junta.relevant:  # first block most significant
        sources = [s << 1 | bit for s in sources for bit in majority]
    return Junta(phi.target_n, relevant, tuple(junta.table[s] for s in sources))


def _stack_tree(tree: DecisionTree, phi: ReplicateMap, label_rule: Callable[[int], int]) -> DecisionTree:
    """Chain phi.k renamed replicas of the tree; a leaf's label is ``label_rule`` of its path's copy outcomes, a
    k-bit mask with copy 1's leaf label highest.

    Replicas share immutable subtrees, one per (source node id, copy, outcomes so far): at most
    (2^k - 1) * |source nodes| distinct nodes, however many paths. The live source keeps its ids stable.
    """
    built: dict[tuple[int, int, int], TreeNode] = {}

    def build(node: TreeNode, copy: int, outcomes: int) -> TreeNode:
        key = (id(node), copy, outcomes)
        if key not in built:
            if isinstance(node, Leaf):
                collected = outcomes << 1 | node.label
                built[key] = Leaf(label_rule(collected)) if copy == phi.k else build(tree.root, copy + 1, collected)
            else:
                var = phi.block_coordinates(node.var)[copy - 1]
                built[key] = Node(var, build(node.low, copy, outcomes), build(node.high, copy, outcomes))
        return built[key]

    return DecisionTree(phi.target_n, build(tree.root, 1, 0))


def reduce_tree_type_b(tree: DecisionTree, phi: ReplicateMap) -> DecisionTree:
    """Decision tree over phi's target taking the majority over copies: a leaf's copy outcomes decode as one block.

    phi.k must be odd, so no block ties (an even k is one ``ValueError``, as for ``maj_poly``). Leaf count (root-to-leaf paths) is exactly leafcount(tree) ** k; the copies share subtrees (``_stack_tree``).
    """
    require_at_most("stacked tree leaves", tree.leaf_count ** phi.k, TREE_LEAF_CAP)
    if phi.k % 2 == 0:
        raise ValueError(f"need an odd count for a strict majority, got {phi.k}")
    return _stack_tree(tree, phi, ReplicateMap(1, phi.k).decode)


def reduce_poly_type_b(poly: SparsePoly, phi: ReplicateMap) -> SparsePoly:
    """Substitute the block majority polynomial for every variable and expand.

    Blocks are disjoint, so the expansion stays multilinear; the degree
    grows by a factor of at most k. For the same reason a variable's expansion has exactly (monomials so far) x
    (monomials of Maj_k) distinct monomials, so the cap refuses it before it is built.
    """
    maj = maj_poly(phi.k)
    result: dict[frozenset[int], Fraction] = {}
    shifted: dict[int, list[tuple[frozenset[int], Fraction]]] = {}  # Maj_k moved onto block i, built on i's first use
    for vars_, coeff in poly.monomials.items():
        partial: dict[frozenset[int], Fraction] = {frozenset(): coeff}
        for i in sorted(vars_):
            if i not in shifted:
                block = phi.block_coordinates(i)
                shifted[i] = [(frozenset(block[c - 1] for c in u), cu) for u, cu in maj.monomials.items()]
            require_at_most("expanded polynomial monomials", len(partial) * len(shifted[i]), POLY_COEFF_CAP)
            partial = {acc_vars | u_vars: acc_coeff * u_coeff
                       for acc_vars, acc_coeff in partial.items() for u_vars, u_coeff in shifted[i]}
        for new_vars, new_coeff in partial.items():
            result[new_vars] = result.get(new_vars, Fraction(0)) + new_coeff
        require_at_most("expanded polynomial monomials", len(result), POLY_COEFF_CAP)
    return SparsePoly(phi.target_n, result)


def reduce_ptf_type_b(ptf: SparsePtf, phi: ReplicateMap) -> SparsePtf:
    return SparsePtf(reduce_poly_type_b(ptf.poly, phi), ptf.theta)


# ---------------------------------------------------------------------------
# Registry of shipped constructions


class Construction(NamedTuple):
    """What one concept class needs: its reduction kind, the class itself, its transform, file parser and seeded
    example."""

    kind: str
    concept: type
    reduce: Callable[[Concept, ReplicateMap], Concept]
    parse: Callable[[str], Concept]
    example: Callable[[int, random.Random], Concept]


def _example_poly(n: int, rng: random.Random) -> SparsePoly:
    return SparsePoly(n, {frozenset({j}): Fraction(1, j + 1) for j in range(1, n + 1)})


CONSTRUCTIONS: dict[str, Construction] = {
    "dnf": Construction("A", DnfFormula, reduce_dnf_type_a, parse_dnf, lambda n, rng: random_dnf(n, 2, 2, rng)),
    "dfa": Construction("A", Dfa, reduce_dfa_type_a, parse_dfa, lambda n, rng: parity_dfa(n)),
    "junta": Construction(
        "B", Junta, reduce_junta_type_b, parse_junta, lambda n, rng: random_junta(n, min(2, n), rng)
    ),
    "tree": Construction("B", DecisionTree, reduce_tree_type_b, parse_tree, lambda n, rng: random_tree(n, 4, rng)),
    "poly": Construction("B", SparsePoly, reduce_poly_type_b, parse_poly, _example_poly),
    "ptf": Construction(
        "B", SparsePtf, reduce_ptf_type_b, parse_poly, lambda n, rng: SparsePtf(_example_poly(n, rng), Fraction(0))
    ),
}


def make_reduction(name: str, n: int, *, k: int | None = None, q0: int | None = None) -> QReduction:
    """The named construction over source dimension n.

    Kind A replicates each coordinate k times (default n^2) and tolerates
    q = k - 1 flips; kind B takes 2*q0+1 copies (q0 default 1) and tolerates q = q0.
    Each kind refuses the other's parameter: kind A a q0, which k fixes, and kind B a k. The reduction's
    ``concept`` and ``reduce`` are the construction's, applied through ``QReduction.transform``.
    """
    require_count(n, 1, "dimension must be a positive integer")
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}, expected one of {sorted(CONSTRUCTIONS)}")
    construction = CONSTRUCTIONS[name]
    if construction.kind == "A":
        if q0 is not None:
            raise ValueError(f"{name} is a kind-A construction, whose budget is k-1; got q0={q0}")
        k = n * n if k is None else k
        phi, q = ReplicateMap(n, k), k - 1
    else:
        if k is not None:
            raise ValueError(f"{name} is a kind-B construction, whose replication factor is 2*q0+1; got k={k}")
        q0 = 1 if q0 is None else q0
        require_count(q0, 0, "locality budget must be non-negative")
        phi, q = ReplicateMap(n, 2 * q0 + 1), q0
    return QReduction(name, construction.kind, phi, q, construction.concept, construction.reduce)


# ---------------------------------------------------------------------------
# Query synthesis: running a local-query learner without the target


class SynthesizedLabels(MaskConcept):
    """The labels a reduction predicts near mapped training data, as a target-cube concept.

    Kind A: a training image keeps its label and any other point is labeled 1.
    Kind B: a point takes the label of the training image its blocks decode to.
    Served through ``LocalMQOracle``, which asks only within q of a training
    image, these agree with ``reduction.transform(h)``.
    """

    def __init__(self, reduction: QReduction, *mapped: LabeledSample):
        self.n = reduction.phi.target_n
        for s in mapped:
            require_dimension("mapped sample", s.n, self.n)
        self._decode = reduction.phi.decode if reduction.kind == "B" else None
        labels = {m: y for s in mapped for m, y in zip(s.masks, s.labels)}
        self._labels = labels if self._decode is None else {self._decode(m): y for m, y in labels.items()}

    def label(self, mask: int) -> int:
        if self._decode is None:
            return self._labels.get(mask, 1)
        return self._labels[self._decode(mask)]


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
    for s in (s1, s2):
        require_dimension("sample", s.n, phi.source_n)
    images = {m: phi.encode(m) for m in {*s1.masks, *s2.masks}}
    m1, m2 = (LabeledSample(phi.target_n, tuple(map(images.__getitem__, s.masks)), s.labels) for s in (s1, s2))
    labels = SynthesizedLabels(reduction, m1, m2)
    oracle = LocalMQOracle.for_samples(labels, reduction.q, m1, m2)
    hypothesis = learner(m1, m2, oracle)
    return ComposedConcept(hypothesis, phi), oracle


# ---------------------------------------------------------------------------
# Brute-force verification


@dataclass
class ReductionReport(Verdict):
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

    def clauses(self) -> dict[str, bool]:
        return {name: getattr(self, name) == 0 for name in ("image_failures", "ball_failures", "anchor_failures")}

    def _note(self, kind: str, mask: int, expected, got) -> None:
        if len(self.counterexamples) < NOTE_CAP:
            point = CubePoint(self.target_n, mask).to_string()
            self.counterexamples.append(dict(check=kind, point=point, expected=str(expected), got=str(got)))

    def to_dict(self) -> dict:
        return canonical(self, passed=self.passed)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _point_set(phi: ReplicateMap, radius: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int, int]:
    """(image masks, row, centres, everything, fresh): ``verify_reduction``'s point set, one per (map, radius).

    Image-major: image s holds bits s * B .. (s + 1) * B - 1, B = ball_size, its centre, then its flips in
    ``ball_columns`` order. ``row`` is the set's columns, ``centres`` the images' bits, ``everything`` every bit and
    ``fresh`` each ball point once, with the earlier image where balls meet.
    """
    n, n_target, k = phi.source_n, phi.target_n, phi.k
    image_masks = tuple(phi.encode(m) for m in range(1 << n))
    # The ball's columns, shifted past the centre and complemented where phi.encode(s) is set, tile by doubling over
    # the source bits.
    columns, size = ball_columns(n_target, radius), ball_size(n_target, radius)
    full, row, centres = (1 << size) - 1, [c << 1 for c in columns], 1
    for b in range(n):
        width = size << b
        row = [c | (c ^ (1 << width) - 1 if i // k == b else c) << width for i, c in enumerate(row)]
        centres |= centres << width
    everything = (1 << (size << n)) - 1
    fresh = everything ^ centres
    for source, centre in enumerate(image_masks):
        # Images lie k apart, so balls meet only where 2 * radius >= k: a shared point belongs to the earlier image.
        for near in (s for w in range(1, 2 * radius // k + 1) for s in masks_at_distance(source, n, w) if s < source):
            shared = full >> 1 ^ count_above(recentre(columns, full >> 1, centre ^ image_masks[near]), radius)
            fresh &= ~(shared << source * size + 1)
    return image_masks, tuple(row), centres, everything, fresh


def verify_reduction(reduction: QReduction, concept: Concept) -> ReductionReport:
    """Exhaustively check a reduction against one source concept.

    Confirms value agreement on the whole image and checks every point
    obtained by flipping 1..min(q, FLIP_RADIUS_CAP) coordinates of an image
    point, once, as one point set per row, labelled by one ``label_columns``
    call (a polynomial by ``compare_columns``, for exact equality with each
    image's value). The point set depends on ``(phi, radius)`` alone, so ``_point_set`` builds it once per pair;
    the transforms' map-only builders (``build_detector``, ``build_block_checker``, ``build_block_simulator``,
    ``dfa_product_or`` and ``maj_poly``) are cached by their inputs too. Kind A requires label 1 off the image.
    Kind B requires the centre's value: ``QReduction`` enforces 2q < k, so every
    ball point decodes to its centre, and ``anchor_failures`` stays 0.
    FLIP_ENUM_BUDGET bounds the check count, as the target cube is astronomically large; a row over it is
    refused before its transform is built, and ``reduction.transform`` checks the concept's class, its dimension
    and its own.
    """
    phi = reduction.phi
    n, n_target = phi.source_n, phi.target_n
    radius = min(reduction.q, FLIP_RADIUS_CAP)
    size = ball_size(n_target, radius)
    require_at_most("flip checks", size << n, FLIP_ENUM_BUDGET)  # before the transform, which grows with the checks
    transformed = reduction.transform(concept)

    report = ReductionReport(reduction.name, reduction.kind, n, n_target, reduction.q, radius)
    sources = range(1 << n)
    if isinstance(concept, SparsePoly):  # a polynomial's images expect its exact values
        values = [concept.value(m) for m in sources]
    else:  # any other concept's images expect its labels, read off its table over every coordinate
        truth = restrict(concept, (1 << n) - 1)
        values = [truth >> m & 1 for m in sources]
    image_masks, row, centres, everything, fresh = _point_set(phi, radius)

    # Each centre expects its source's value; kind A expects 1 on the balls, kind B the centre's value throughout.
    targets = {1: everything ^ centres} if reduction.kind == "A" else {}
    own = (1 << size) - 1 if reduction.kind == "B" else 1
    for source, value in enumerate(values):
        targets[value] = targets.get(value, 0) | own << source * size
    if isinstance(transformed, SparsePoly):
        right = transformed.compare_columns(row, everything, targets.items())[1]
    else:
        ones = transformed.label_columns(row, everything)
        right = targets.get(1, 0) & ones | targets.get(0, 0) & ~ones
    images, wrong = centres & ~right, fresh & ~right
    report.image_checked, report.image_failures = 1 << n, images.bit_count()
    report.ball_checked, report.ball_failures = fresh.bit_count(), wrong.bit_count()
    flips = [0] + [m for r in range(1, radius + 1) for m in masks_at_distance(0, n_target, r)] if wrong else [0]
    read = transformed.value if isinstance(transformed, SparsePoly) else transformed.label
    for source, p in (divmod(bit, size) for bit in islice(chain(iter_bits(images), iter_bits(wrong)), NOTE_CAP)):
        m = image_masks[source] ^ flips[p]
        expected = values[source] if p == 0 or reduction.kind == "B" else 1
        report._note("ball" if p else "image", m, expected, read(m))
    return report


# ---------------------------------------------------------------------------
# Deliberately broken constructions, used as verifier negative controls


def corrupted_dnf_reduction_without_detector(n: int) -> QReduction:
    """DNF reduction missing the non-constant-block detector terms."""
    return replace(make_reduction("dnf", n), name="dnf-no-detector", reduce=_lift_to_block_heads)


def _stuck_simulator(automaton: Dfa, phi: ReplicateMap) -> Dfa:
    """The checker paired with a simulator whose block ends go back to their own block start, whatever the symbol."""
    good, k = build_block_simulator(automaton, phi), phi.k
    delta = tuple((s - k + 1,) * 2 if s % k == k - 1 else row for s, row in enumerate(good.delta))
    return dfa_product_or(build_block_checker(phi), replace(good, delta=delta))


def corrupted_dfa_reduction_stuck_simulator(n: int) -> QReduction:
    """DFA reduction whose simulator wraps blocks without ever stepping."""
    return replace(make_reduction("dfa", n), name="dfa-stuck-simulator", reduce=_stuck_simulator)


def corrupted_tree_reduction_first_copy(n: int, q0: int) -> QReduction:
    """Tree reduction labeling leaves by the first copy instead of the majority."""
    return replace(
        make_reduction("tree", n, q0=q0), name="tree-first-copy",
        reduce=lambda tree, phi: _stack_tree(tree, phi, lambda outcomes: outcomes >> phi.k - 1),
    )
