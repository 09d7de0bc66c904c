"""Concept classes over the cube, their evaluators, and seeded random instances.

All concepts expose ``n`` (input dimension), ``label(mask) -> {0,1}`` on
in-range n-bit masks, ``flip_labels(mask)``, whose bit i is the label at
``mask ^ (1 << i)``, ``reads``, the bit mask of the coordinates a label can
depend on (``label(m) == label(m & reads)``), and ``evaluate(x)``: a
dimension check, then ``label(x.mask)``. Hot paths call ``label``, which checks no mask;
``CubePoint`` stays at the API boundary. Sparse polynomials additionally evaluate to exact rationals, pointwise
and bit-sliced, from one integer form built on the first evaluation (``SparsePoly._scaled``).
Every concept also labels a bit-sliced point list (a ball, the cube or a sample's lanes; see ``cube``) at once:
``label_columns(columns, full)``, one bit of ``full`` per point, is the bitset of the points labelled 1
(a threshold function: ``SparsePoly.compare_columns``; ``MaskConcept``'s default, a ``PolyConcept``'s too: one
``label`` per distinct point).
Variable indices are 1-based everywhere, matching the textual formats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import and_, or_, xor
from typing import Collection, Iterable, Iterator, Mapping, Protocol, Sequence, Union

from .cube import CubePoint, ReplicateMap, exact_rational, first_bad_int, is_int, iter_bits, require_at_most
from .cube import require_count, require_dimension, require_masks, require_sequence, require_variables

JUNTA_CAP = 16
MAJ_POLY_CAP = 15
_set = object.__setattr__  # a frozen dataclass's own field setter, bound once


class Concept(Protocol):
    """Anything labelling the points of {-1,+1}^n with 0 or 1: a point (``label``) or a list (``label_columns``)."""

    n: int
    reads: int

    def label(self, mask: int) -> int:
        """The label of an in-range n-bit mask, read unchecked, as the hot paths call it: an int out of range, a
        bool or a float is not refused (a formula over 2 variables reads mask 4 as mask 0). The checked forms are
        ``evaluate``, ``DnfFormula.satisfied_indices`` and the oracle's ``ask``."""
        ...

    def flip_labels(self, mask: int) -> int: ...

    def label_columns(self, columns: Sequence[int], full: int) -> int: ...

    def evaluate(self, x: CubePoint) -> int: ...


class MaskConcept:
    """The one ``evaluate`` of every concept, and pointwise defaults for a concept that knows only ``label``."""

    __slots__ = ()

    @property
    def reads(self) -> int:
        """All n coordinates, unless a subclass knows its label reads fewer."""
        return (1 << self.n) - 1

    def flip_labels(self, mask: int) -> int:
        """Bit i is the label at ``mask ^ (1 << i)``: n ``label`` calls, unless a subclass knows better."""
        return sum(self.label(mask ^ 1 << i) << i for i in range(self.n))

    def label_columns(self, columns: Sequence[int], full: int) -> int:
        """The points labelled 1: one ``label`` per distinct point, in list order; each column is read once."""
        digits = format(full, "b")
        at = [k for k, digit in enumerate(digits) if digit == "1"]  # where the points' digits are, last point first
        # A string per column, highest first, of its digits at the points: character j, read down, spells a mask.
        rows = ["".join(map(format(c, f"0{len(digits)}b").__getitem__, at)) for c in reversed(columns)]
        masks = [int("".join(bits), 2) for bits in zip(*rows)]
        labels = {mask: self.label(mask) for mask in dict.fromkeys(reversed(masks))}
        ones = list(digits)
        for k, mask in zip(at, masks):
            ones[k] = "01"[labels[mask]]
        return int("".join(ones), 2)

    def evaluate(self, x: CubePoint) -> int:
        require_dimension("point", x.n, self.n)
        return self.label(x.mask)


# ---------------------------------------------------------------------------
# DNF formulas


@dataclass(frozen=True, slots=True)
class Term:
    """A conjunction of literals: positive and negated variable index sets."""

    positives: frozenset[int]
    negatives: frozenset[int]

    def __post_init__(self) -> None:
        try:
            _set(self, "positives", frozenset(self.positives))
            _set(self, "negatives", frozenset(self.negatives))
        except TypeError:
            raise ValueError(f"term literals must be collections of variable indices, got {self!r}") from None
        if both := self.positives & self.negatives:
            raise ValueError(f"term contains a variable and its negation: {sorted(both)}")
        for j in self.positives | self.negatives:
            require_count(j, 1, "variable indices must be positive integers")

    @classmethod
    def of(cls, *literals: int) -> "Term":
        """Build a term from signed indices, e.g. Term.of(1, -2) = x1 AND NOT x2."""
        pos = frozenset(v for v in literals if v > 0)
        neg = frozenset(-v for v in literals if v < 0)
        if 0 in literals:
            raise ValueError("0 is not a valid signed variable index")
        return cls(pos, neg)

    @property
    def width(self) -> int:
        return len(self.positives) + len(self.negatives)

    @property
    def variables(self) -> frozenset[int]:
        return self.positives | self.negatives

    def masks(self, n: int) -> tuple[int, int]:
        """(must-be-+1 mask, must-be--1 mask) for dimension n."""
        return sum(1 << (n - j) for j in self.positives), sum(1 << (n - j) for j in self.negatives)

    @classmethod
    def from_masks(cls, n: int, pos: int, neg: int) -> "Term":
        """The inverse of ``masks``: the term whose masks over n variables are pos and neg; a mask that is not an
        int in 0..2^n - 1 (a bool or a float included) is ``require_masks``'s error."""
        if type(pos) is not int or type(neg) is not int or (pos | neg) >> n:
            require_masks("term mask", (pos, neg), n)
        return cls(*(frozenset(n - i for i in range(n) if m >> i & 1) for m in (pos, neg)))

    def table(self, columns: Sequence[int], full: int) -> int:
        """Bitset of the listed points satisfying the term; ``columns[i]`` holds bit i of each point."""
        n = len(columns)
        return reduce(and_, [columns[n - j] for j in self.positives] + [~columns[n - j] for j in self.negatives], full)

    def satisfied_by(self, x: CubePoint) -> bool:
        """True iff x meets every literal of the term."""
        require_variables("term variable", self.variables, x.n)
        pos, neg = self.masks(x.n)
        return (x.mask & pos) == pos and (x.mask & neg) == 0

    def signed(self) -> tuple[int, ...]:
        return tuple(sorted(self.positives)) + tuple(-j for j in sorted(self.negatives))


@dataclass(frozen=True)
class DnfFormula(MaskConcept):
    """A disjunction of terms over n variables.

    Conventions: the empty formula evaluates to 0 everywhere; a term with
    no literals is satisfied by every point.
    """

    n: int
    terms: tuple[Term, ...]
    _masks: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    # The union of the terms' masks; the class default only shadows ``MaskConcept.reads``.
    reads: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        # ``Term`` has made each an int >= 1, so only n can refuse one here
        require_variables("variable", tuple(chain.from_iterable(t.variables for t in self.terms)), self.n)
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "_masks", tuple(t.masks(self.n) for t in self.terms))
        object.__setattr__(self, "reads", reduce(or_, (pos | neg for pos, neg in self._masks), 0))

    def label(self, mask: int) -> int:
        """Unchecked, as ``Concept.label``; ``satisfied_indices`` is the checked form."""
        for pos, neg in self._masks:
            if (mask & pos) == pos and (mask & neg) == 0:
                return 1
        return 0

    def label_columns(self, columns: Sequence[int], full: int) -> int:
        return reduce(or_, (t.table(columns, full) for t in self.terms), 0)

    def flip_labels(self, mask: int) -> int:
        """One pass over the terms: a satisfied term makes every flip outside its
        variables positive, and a term violated by one literal makes that flip positive."""
        bits = 0
        for pos, neg in self._masks:
            violated = (mask ^ pos) & (pos | neg)
            if not violated:
                bits |= ~(pos | neg) & (1 << self.n) - 1
            elif not violated & (violated - 1):
                bits |= violated
        return bits

    def satisfied_indices(self, mask: int) -> tuple[int, ...]:
        """0-based indices of all terms satisfied by the point with this mask."""
        if not is_int(mask, 0, (1 << self.n) - 1):
            require_masks("mask", (mask,), self.n)
        return tuple([i for i, (pos, neg) in enumerate(self._masks) if (mask & pos) == pos and (mask & neg) == 0])


# ---------------------------------------------------------------------------
# Decision trees


@dataclass(frozen=True, slots=True, init=False)
class Leaf:
    label: int

    def __init__(self, label: int) -> None:  # as ``CubePoint``'s: it checks, then sets, with no ``__post_init__``
        if not is_int(label, 0, 1):
            raise ValueError(f"leaf label must be 0 or 1, got {label!r}")
        _set(self, "label", label)


@dataclass(frozen=True, slots=True)
class Node:
    """Internal node testing one variable: ``low`` when -1, ``high`` when +1."""

    var: int
    low: Union["Node", Leaf]
    high: Union["Node", Leaf]


TreeNode = Union[Node, Leaf]


@dataclass(frozen=True)
class DecisionTree(MaskConcept):
    """Immutable nodes, so subtrees may be shared (stacked replicas are); ``leaf_count`` counts root-to-leaf paths."""

    n: int
    root: TreeNode

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        require_variables("node variable", tuple(self._vars(self.root)), self.n)

    @staticmethod
    def _vars(root: TreeNode) -> Iterator[int]:
        """Each distinct node's variable once, by id, in preorder; refuses a node that is not a Node or a Leaf."""
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Node) and id(node) not in seen:
                seen.add(id(node))
                yield node.var
                stack += (node.high, node.low)
            elif not isinstance(node, (Node, Leaf)):
                raise ValueError(f"a tree node must be a Node or a Leaf, got {node!r}")

    @property
    def leaf_count(self) -> int:
        paths: dict[int, int] = {}

        def count(node: TreeNode) -> int:
            if id(node) not in paths:
                paths[id(node)] = 1 if isinstance(node, Leaf) else count(node.low) + count(node.high)
            return paths[id(node)]

        return count(self.root)

    def label(self, mask: int) -> int:
        node, n = self.root, self.n
        while isinstance(node, Node):
            node = node.high if (mask >> (n - node.var)) & 1 else node.low
        return node.label

    def label_columns(self, columns: Sequence[int], full: int) -> int:
        """Each node splits its points by its variable's column; 1-leaves collect theirs."""

        def ones(node: TreeNode, points: int) -> int:
            if not points:
                return 0
            if isinstance(node, Leaf):
                return points * node.label
            plus = columns[self.n - node.var]
            return ones(node.low, points & ~plus) | ones(node.high, points & plus)

        return ones(self.root, full)


def dnf_of_tree(tree: DecisionTree) -> DnfFormula:
    """Expand a decision tree into one term per reachable 1-leaf.

    Each term conjoins the literals along the root-to-leaf path. Paths that
    test a variable in both directions are unreachable and dropped; repeated
    same-direction tests collapse. On every positive point exactly one term
    of the result is satisfied, and the term count never exceeds the leaf
    count.
    """
    terms: list[Term] = []

    def walk(node: TreeNode, pos: frozenset[int], neg: frozenset[int]) -> None:
        if isinstance(node, Leaf):
            if node.label == 1:
                terms.append(Term(pos, neg))
            return
        j = node.var
        if j not in pos:
            walk(node.low, pos, neg | {j})
        if j not in neg:
            walk(node.high, pos | {j}, neg)

    walk(tree.root, frozenset(), frozenset())
    return DnfFormula(tree.n, tuple(terms))


# ---------------------------------------------------------------------------
# Finite automata over fixed-length ±1 strings


@dataclass(frozen=True)
class Dfa(MaskConcept):
    """Deterministic automaton reading the bits of a point in coordinate order.

    States are ``0 .. len(delta) - 1``; ``delta[s]`` is the pair (next state
    on -1, next state on +1). ``length`` is the exact number of symbols
    consumed; acceptance is inspected only after the full input.
    """

    delta: tuple[tuple[int, int], ...]
    start: int
    accepting: frozenset[int]
    length: int

    def __post_init__(self) -> None:
        require_sequence("automaton transition rows", self.delta)
        delta, last = self.delta, len(self.delta) - 1
        if last < 0:
            raise ValueError("an automaton needs at least one state, got an empty delta")
        if not isinstance(self.accepting, Collection):
            raise ValueError(f"accepting states must be a collection, got {type(self.accepting).__name__}")
        if not is_int(self.start, 0, last) or first_bad_int(self.accepting, 0, last) is not None:
            raise ValueError(f"start and accepting states must lie in 0..{last}")
        # Each row is a tuple or a list of two states: one C-level pass over every row; only a failure walks them.
        pairs = set(map(type, delta)) <= {tuple, list} and set(map(len, delta)) == {2}
        if not pairs or first_bad_int(tuple(chain.from_iterable(delta)), 0, last) is not None:
            s = next(s for s, row in enumerate(delta)
                     if type(row) not in (tuple, list) or len(row) != 2 or first_bad_int(row, 0, last) is not None)
            raise ValueError(f"state {s} needs two transitions into 0..{last}, got {delta[s]!r}")
        require_count(self.length, 1, "input length must be positive")
        _set(self, "delta", tuple(map(tuple, delta)))
        _set(self, "accepting", frozenset(self.accepting))

    @property
    def n(self) -> int:
        return self.length

    @property
    def num_states(self) -> int:
        return len(self.delta)

    def label(self, mask: int) -> int:
        state, delta = self.start, self.delta
        for shift in range(self.length - 1, -1, -1):
            state = delta[state][(mask >> shift) & 1]
        return 1 if state in self.accepting else 0

    def label_columns(self, columns: Sequence[int], full: int) -> int:
        """One bitset per live state, stepped through the columns in reading order."""
        live = {self.start: full}
        for shift in range(self.length - 1, -1, -1):
            plus, stepped = columns[shift], {}
            for state, points in live.items():
                for target, part in zip(self.delta[state], (points & ~plus, points & plus)):
                    if part:
                        stepped[target] = stepped.get(target, 0) | part
            live = stepped
        return reduce(or_, (points for state, points in live.items() if state in self.accepting), 0)


# ---------------------------------------------------------------------------
# Juntas


@dataclass(frozen=True)
class Junta(MaskConcept):
    """A function depending only on the listed variables, given as a table.

    ``table`` has 2^K entries indexed by the relevant variables in order,
    first variable most significant, bit 1 for +1.
    """

    n: int
    relevant: tuple[int, ...]
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        require_sequence("junta relevant variables", self.relevant)  # the table is indexed in their order
        require_sequence("junta table", self.table)
        k = len(self.relevant)
        require_at_most("junta relevant variables", k, JUNTA_CAP)
        require_variables("relevant variable", self.relevant, self.n)  # first, so the set test hashes ints alone
        if len(set(self.relevant)) != k:
            raise ValueError(f"relevant variables must be distinct, got {self.relevant!r}")
        if len(self.table) != 1 << k:
            raise ValueError(f"table must have {1 << k} entries, got {len(self.table)}")
        if first_bad_int(self.table, 0, 1) is not None:
            raise ValueError("table entries must be 0 or 1")
        _set(self, "relevant", tuple(self.relevant))
        _set(self, "table", tuple(self.table))

    @property
    def k(self) -> int:
        return len(self.relevant)

    def label(self, mask: int) -> int:
        idx = 0
        for j in self.relevant:
            idx = (idx << 1) | ((mask >> (self.n - j)) & 1)
        return self.table[idx]

    def label_columns(self, columns: Sequence[int], full: int) -> int:
        """Shannon split over the relevant columns, keeping only non-empty parts, then a table read per part."""
        parts = [(0, full)]  # (table index prefix, points with that prefix)
        for j in self.relevant:
            plus = columns[self.n - j]
            parts = [(idx << 1 | bit, part) for idx, points in parts
                     for bit, part in ((0, points & ~plus), (1, points & plus)) if part]
        return reduce(or_, (points for idx, points in parts if self.table[idx]), 0)


# ---------------------------------------------------------------------------
# Sparse multilinear polynomials and threshold functions


@dataclass(frozen=True)
class SparsePoly:
    """Multilinear polynomial with exact rational coefficients.

    ``monomials`` maps a frozenset of variable indices to its coefficient, an
    int, a finite float or a Fraction, stored as a Fraction; zero
    coefficients are dropped at construction.
    """

    n: int
    monomials: Mapping[frozenset[int], Fraction]

    def __post_init__(self) -> None:
        require_count(self.n, 1, "dimension must be a positive integer")
        require_variables("monomial variable", tuple(chain.from_iterable(self.monomials)), self.n)
        cleaned: dict[frozenset[int], Fraction] = {}
        for vars_, coeff in self.monomials.items():
            if c := exact_rational(coeff, "coefficient"):
                cleaned[frozenset(vars_)] = c
        object.__setattr__(self, "monomials", cleaned)

    @property
    def degree(self) -> int:
        return max((len(s) for s in self.monomials), default=0)

    @property
    def coefficient_count(self) -> int:
        return len(self.monomials)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[frozenset[int], int, int], ...]]:
        """(denom, terms), built on the first evaluation: over the common denominator ``denom`` each coefficient
        is an integer v, and each monomial is a term (its variables, their mask bits, v)."""
        denom, top = math.lcm(*(c.denominator for c in self.monomials.values())), 1 << self.n
        return denom, tuple([(vars_, sum(map(top.__rshift__, vars_)), c.numerator * (denom // c.denominator))
                             for vars_, c in self.monomials.items()])

    def _parts(self, mask: int) -> tuple[int, int]:
        """(total, denom), denom > 0: the polynomial at an in-range n-bit mask is total / denom."""
        denom, terms = self._scaled
        minus = ~mask
        return sum(-v if (minus & monomial).bit_count() & 1 else v for _, monomial, v in terms), denom

    def evaluate(self, x: CubePoint) -> Fraction:
        require_dimension("point", x.n, self.n)
        return self.value(x.mask)

    def value(self, mask: int) -> Fraction:
        """The polynomial at an in-range n-bit mask, exactly: over the common denominator, the sum of each
        monomial's integer coefficient v, negated where an odd number of its variables are -1 (see ``_scaled``)."""
        return Fraction(*self._parts(mask))

    def compare_columns(self, columns: Sequence[int], full: int, targets: Iterable[tuple]) -> tuple[int, int]:
        """Bitsets of the listed points where the polynomial is >= and == their target; ``targets`` pairs each
        rational target with the bitset of its points. Over the common denominator each coefficient is an integer
        v, and v times a monomial is -|v| plus 2|v| times its even (v > 0) or odd (v < 0) -1 parity: the value times
        the denominator is ``low`` plus their bit-sliced sum, compared with the targets from the top plane down."""
        denom, terms = self._scaled
        low = -sum(abs(v) for _, _, v in terms)
        heaps: list[list[int]] = [[] for _ in range((-2 * low).bit_length())]

        def file(j: int, bits: int) -> None:
            # heaps[j] keeps at most two bitsets of weight 2^j: a full adder turns three into their sum and a carry
            # one weight up. No point's sum reaches 2^len(heaps), so no carry falls off the end.
            heaps[j].append(bits)
            if len(heaps[j]) == 3:
                a, b, c = heaps[j]
                heaps[j] = [a ^ b ^ c]
                if carry := a & b | c & (a ^ b):
                    file(j + 1, carry)

        by_var = [0, *columns[::-1]]  # variable j's column is by_var[j]
        for vars_, _, v in terms:
            # The odd -1 parity is the XOR of the complemented columns; the even one, for v > 0, its complement.
            parity = reduce(xor, map(by_var.__getitem__, vars_), full if len(vars_) % 2 == (v < 0) else 0)
            for j in iter_bits(2 * abs(v)):
                file(j, parity)
        for j in range(len(heaps)):
            if len(heaps[j]) == 2:  # a half adder: a full adder with a zero third
                file(j, 0)
        planes = [heap[0] if heap else 0 for heap in heaps]
        at_least = exact = live = 0
        digits = [0] * len(planes)  # digits[j]: the points whose integer target has bit j set
        for target, points in targets:
            c = math.ceil(t := target * denom - low)
            if c < 0:
                at_least |= points
            elif not c >> len(planes):
                live, exact = live | points, exact | (points if c == t else 0)
                for j in iter_bits(c):
                    digits[j] |= points
        above, equal = 0, live
        for plane, digit in zip(reversed(planes), reversed(digits)):
            above |= equal & plane & ~digit
            equal &= ~(plane ^ digit)
        return at_least | above | equal, equal & exact


@dataclass(frozen=True)
class PolyConcept(MaskConcept):
    """Label adapter for a ±1-valued polynomial: +1 -> 1, -1 -> 0."""

    poly: SparsePoly

    def __post_init__(self) -> None:
        if not isinstance(self.poly, SparsePoly):
            raise ValueError(f"polynomial concept needs a SparsePoly, got {type(self.poly).__name__}")

    @property
    def n(self) -> int:
        return self.poly.n

    def label(self, mask: int) -> int:
        total, denom = self.poly._parts(mask)
        if total == denom:
            return 1
        if total == -denom:
            return 0
        raise ValueError(
            f"polynomial value {Fraction(total, denom)} at {CubePoint(self.n, mask).to_string()} is not in {{-1,+1}}"
        )


@dataclass(frozen=True)
class SparsePtf(MaskConcept):
    """Polynomial threshold function: label 1 iff the polynomial is >= theta.

    ``theta`` is an int, a finite float or a Fraction, stored as a Fraction.
    """

    poly: SparsePoly
    theta: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.poly, SparsePoly):
            raise ValueError(f"threshold function needs a SparsePoly, got {type(self.poly).__name__}")
        object.__setattr__(self, "theta", exact_rational(self.theta, "threshold"))

    @property
    def n(self) -> int:
        return self.poly.n

    def label(self, mask: int) -> int:
        total, denom = self.poly._parts(mask)
        theta = self.theta
        return 1 if total * theta.denominator >= theta.numerator * denom else 0

    def label_columns(self, columns: Sequence[int], full: int) -> int:
        return self.poly.compare_columns(columns, full, [(self.theta, full)])[0]


@lru_cache(maxsize=None, typed=True)  # typed: a bool or a float never meets an int's entry; only 8 counts succeed
def maj_poly(k: int) -> SparsePoly:
    """Exact multilinear expansion of majority on k variables, outputs in ±1.

    Computed by a Walsh transform of the block majority ``ReplicateMap(1, k).decode``
    over all 2^k points; k must be odd so no tie-breaking is needed. Degree <= k and at most 2^k nonzero coefficients.
    Cached by k: every caller shares one polynomial, whose ``monomials`` no code mutates.
    """
    if not is_int(k, 1, MAJ_POLY_CAP):
        raise ValueError(f"variable count {k!r} out of range 1..{MAJ_POLY_CAP}")
    if k % 2 == 0:
        raise ValueError(f"majority needs an odd variable count, got {k}")
    size = 1 << k
    vals = [2 * bit - 1 for bit in map(ReplicateMap(1, k).decode, range(size))]
    # In-place butterfly: vals[s] becomes sum_x maj(x) * prod_{t in s} x_t.
    for b in range(k):
        step = 1 << b
        for block in range(0, size, step << 1):
            for i in range(block, block + step):
                u, v = vals[i], vals[i + step]
                vals[i] = u + v
                vals[i + step] = v - u
    monomials: dict[frozenset[int], Fraction] = {}
    for smask in range(size):
        if vals[smask]:
            vars_ = frozenset(k - t for t in range(k) if (smask >> t) & 1)
            monomials[vars_] = Fraction(vals[smask], size)
    return SparsePoly(k, monomials)


# ---------------------------------------------------------------------------
# Seeded random instances


def random_tree(n: int, leaves: int, rng: random.Random) -> DecisionTree:
    """Random tree with the exact leaf count (at most 2^n), never re-testing a path variable."""
    require_count(n, 1, "dimension must be a positive integer")
    require_count(leaves, 1, "leaf count must be a positive integer")
    leaves = min(leaves, 1 << n)

    def build(available: frozenset[int], budget: int):
        if budget == 1 or not available:
            return Leaf(rng.randint(0, 1))
        var = rng.choice(sorted(available))
        rest = available - {var}
        side_cap = 1 << len(rest)
        low_budget = rng.randint(max(1, budget - side_cap), min(budget - 1, side_cap))
        return Node(var, build(rest, low_budget), build(rest, budget - low_budget))

    return DecisionTree(n, build(frozenset(range(1, n + 1)), leaves))


def random_dnf(n: int, d: int, max_width: int, rng: random.Random) -> DnfFormula:
    """Random formula of d terms, each of 1..min(max_width, n) distinct variables with random signs."""
    require_count(n, 1, "dimension must be a positive integer")
    require_count(d, 0, "term count must be a non-negative integer")
    require_count(max_width, 1, "term width must be a positive integer")
    terms = []
    for _ in range(d):
        width = rng.randint(1, min(max_width, n))
        variables = rng.sample(range(1, n + 1), width)
        pos = frozenset(j for j in variables if rng.random() < 0.5)
        terms.append(Term(pos, frozenset(variables) - pos))
    return DnfFormula(n, tuple(terms))


def parity_dfa(n: int) -> Dfa:
    """Accepts length-n inputs containing an odd number of -1 symbols (state 0 even, 1 odd)."""
    return Dfa(((1, 0), (0, 1)), 0, frozenset({1}), n)


def random_dfa(n: int, num_states: int, rng: random.Random) -> Dfa:
    delta = tuple((rng.randrange(num_states), rng.randrange(num_states)) for _ in range(num_states))
    accepting = frozenset(s for s in range(num_states) if rng.random() < 0.5) or frozenset({num_states - 1})
    return Dfa(delta, 0, accepting, n)


def random_junta(n: int, k: int, rng: random.Random) -> Junta:
    relevant = tuple(rng.sample(range(1, n + 1), k))
    table = tuple(rng.randint(0, 1) for _ in range(1 << k))
    return Junta(n, relevant, table)
