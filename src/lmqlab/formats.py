"""Textual formats for fixtures: formulas, trees, automata, polynomials.

All formats are line-oriented; blank lines and lines starting with '#' are
ignored. An optional ``dim N`` line pins the ambient dimension, which is
otherwise inferred from the largest variable mentioned.

DNF          one term per line as signed variable indices ("1 -2" is
             x1 AND NOT x2); a lone "0" is the empty, always-true term.
Tree         a single s-expression: leaf ::= 0 | 1,
             node ::= ( var low-subtree high-subtree ),
             where the low branch is taken when the variable is -1.
Automaton    "len: N", "start: STATE", "accept: STATE...", and one
             "trans: STATE (+|-) STATE" line per edge. STATE names are
             labels: states are numbered 0, 1, ... by first mention.
Polynomial   one monomial per line as "COEFF: v1 v2 ..." with a rational
             coefficient; "theta: R" turns the file into a threshold
             function.
Junta        "dim N", "relevant: v1 v2 ...", "table: 0110..." (row-major,
             first relevant variable most significant, bit 1 for +1).
Distribution "uniform:N", "product:p1,...,pN", or "file:PATH" where the
             file holds "POINT PROB" lines like "+-+ 1/4".
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Optional

from .concepts import (
    DecisionTree,
    Dfa,
    DnfFormula,
    Junta,
    Leaf,
    Node,
    SparsePoly,
    SparsePtf,
    Term,
    TreeNode,
)
from .cube import CubePoint
from .distributions import Distribution, FiniteSupport, ProductDist, UniformCube


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def parse_fraction(text: str) -> Fraction:
    """An exact rational such as "3/4" or "-0.5"; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _split_dim(lines: list[str]) -> tuple[Optional[int], list[str]]:
    if lines and lines[0].lower().startswith("dim"):
        parts = lines[0].split()
        if len(parts) != 2:
            raise ValueError(f"malformed dimension line: {lines[0]!r}")
        return int(parts[1]), lines[1:]
    return None, lines


# ---------------------------------------------------------------------------
# DNF


def parse_dnf(text: str) -> DnfFormula:
    n, lines = _split_dim(_content_lines(text))
    terms = []
    max_var = 1
    for line in lines:
        literals = [int(tok) for tok in line.split()]
        if literals == [0]:
            terms.append(Term(frozenset(), frozenset()))
            continue
        if 0 in literals:
            raise ValueError(f"literal 0 is only valid alone (empty term): {line!r}")
        terms.append(Term.of(*literals))
        max_var = max(max_var, *(abs(v) for v in literals))
    return DnfFormula(n if n is not None else max_var, tuple(terms))


def dump_dnf(formula: DnfFormula) -> str:
    lines = [f"dim {formula.n}"]
    for t in formula.terms:
        lines.append(" ".join(map(str, t.signed())) if t.width else "0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Decision trees


def _tokenize(expr: str) -> list[str]:
    return expr.replace("(", " ( ").replace(")", " ) ").split()


def parse_tree(text: str) -> DecisionTree:
    n, lines = _split_dim(_content_lines(text))
    tokens = _tokenize(" ".join(lines))

    def token(pos: int) -> str:
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree expression")
        return tokens[pos]

    def parse_node(pos: int) -> tuple[TreeNode, int]:
        tok = token(pos)
        if tok == "(":
            var = int(token(pos + 1))
            low, after_low = parse_node(pos + 2)
            high, after_high = parse_node(after_low)
            if token(after_high) != ")":
                raise ValueError(f"expected ')' at token {after_high}")
            return Node(var, low, high), after_high + 1
        if tok in ("0", "1"):
            return Leaf(int(tok)), pos + 1
        raise ValueError(f"unexpected token {tok!r}")

    try:
        root, end = parse_node(0)
    except RecursionError:
        raise ValueError("tree expression nests too deeply") from None
    if end != len(tokens):
        raise ValueError(f"trailing tokens after tree expression: {tokens[end:]}")
    max_var = max((v for v in DecisionTree._vars(root)), default=1)
    return DecisionTree(n if n is not None else max_var, root)


def dump_tree(tree: DecisionTree) -> str:
    def render(node: TreeNode) -> str:
        if isinstance(node, Leaf):
            return str(node.label)
        return f"({node.var} {render(node.low)} {render(node.high)})"

    return f"dim {tree.n}\n{render(tree.root)}\n"


# ---------------------------------------------------------------------------
# Automata


def parse_dfa(text: str) -> Dfa:
    """Read an automaton; its state names are labels numbered 0, 1, ... by first mention."""
    length = start = None
    accepting: list[str] = []
    edges: dict[tuple[str, int], str] = {}
    mentions: list[str] = []
    for line in _content_lines(text):
        key, _, rest = line.partition(":")
        key, rest = key.strip().lower(), rest.strip()
        if key == "len":
            length = int(rest)
        elif key == "start":
            start = rest
            mentions.append(start)
        elif key == "accept":
            accepting += rest.split()
            mentions += rest.split()
        elif key == "trans":
            if len(rest.split()) != 3:
                raise ValueError(f"automaton line {line!r} is not of the form 'trans: STATE (+|-) STATE'")
            src, symbol, dst = rest.split()
            if symbol not in ("+", "-"):
                raise ValueError(f"transition symbol must be '+' or '-', got {symbol!r}")
            mentions += [src, dst]
            edges[(src, 1 if symbol == "+" else -1)] = dst
        else:
            raise ValueError(f"unknown automaton line: {line!r}")
    if length is None or start is None:
        raise ValueError("automaton needs 'len:' and 'start:' lines")
    states = {name: index for index, name in enumerate(dict.fromkeys(mentions))}
    for edge in ((s, b) for s in states for b in (-1, 1)):
        if edge not in edges:
            raise ValueError(f"transition missing for {edge!r}")
    delta = tuple((states[edges[(s, -1)]], states[edges[(s, 1)]]) for s in states)
    return Dfa(delta, states[start], frozenset(states[s] for s in accepting), length)


def dump_dfa(dfa: Dfa) -> str:
    lines = [f"len: {dfa.length}", f"start: {dfa.start}"]
    if dfa.accepting:
        lines.append("accept: " + " ".join(map(str, sorted(dfa.accepting))))
    for state, (minus, plus) in enumerate(dfa.delta):
        lines += [f"trans: {state} - {minus}", f"trans: {state} + {plus}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Polynomials and threshold functions


def parse_poly(text: str) -> SparsePoly | SparsePtf:
    n, lines = _split_dim(_content_lines(text))
    monomials: dict[frozenset[int], Fraction] = {}
    theta: Optional[Fraction] = None
    max_var = 1
    for line in lines:
        head, _, rest = line.partition(":")
        if head.strip().lower() == "theta":
            theta = parse_fraction(rest)
            continue
        coeff = parse_fraction(head)
        variables = frozenset(int(tok) for tok in rest.split())
        if variables:
            max_var = max(max_var, *variables)
        monomials[variables] = monomials.get(variables, Fraction(0)) + coeff
    poly = SparsePoly(n if n is not None else max_var, monomials)
    return poly if theta is None else SparsePtf(poly, theta)


def dump_poly(poly: SparsePoly | SparsePtf) -> str:
    theta = None
    if isinstance(poly, SparsePtf):
        theta, poly = poly.theta, poly.poly
    lines = [f"dim {poly.n}"]
    for vars_ in sorted(poly.monomials, key=lambda s: (len(s), sorted(s))):
        lines.append(f"{poly.monomials[vars_]}: " + " ".join(map(str, sorted(vars_))))
    if theta is not None:
        lines.append(f"theta: {theta}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Juntas


def parse_junta(text: str) -> Junta:
    declared, lines = _split_dim(_content_lines(text))
    relevant: Optional[tuple[int, ...]] = None
    table: Optional[tuple[int, ...]] = None
    for line in lines:
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "relevant":
            relevant = tuple(int(tok) for tok in rest.split())
        elif key == "table":
            bits = rest.strip().replace(" ", "")
            table = tuple(int(c) for c in bits)
        else:
            raise ValueError(f"unknown junta line: {line!r}")
    if declared is None or relevant is None or table is None:
        raise ValueError("junta needs 'dim', 'relevant:' and 'table:' lines")
    return Junta(declared, relevant, table)


def dump_junta(junta: Junta) -> str:
    table = "".join(map(str, junta.table))
    return f"dim {junta.n}\nrelevant: {' '.join(map(str, junta.relevant))}\ntable: {table}\n"


# ---------------------------------------------------------------------------
# Distributions


def parse_distribution(spec: str) -> Distribution:
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "uniform":
        return UniformCube(int(rest))
    if kind == "product":
        probs = tuple(parse_fraction(tok) for tok in rest.split(","))
        return ProductDist(len(probs), probs)
    if kind == "file":
        return parse_finite_support(Path(rest).read_text())
    raise ValueError(f"unknown distribution spec {spec!r} (use uniform:/product:/file:)")


def parse_finite_support(text: str) -> FiniteSupport:
    entries = []
    for line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"finite support line {line!r} is not of the form 'POINT PROB'")
        entries.append((CubePoint.from_string(fields[0]), parse_fraction(fields[1])))
    if not entries:
        raise ValueError("finite support file has no entries")
    return FiniteSupport(entries[0][0].n, tuple(entries))


def dump_finite_support(dist: FiniteSupport) -> str:
    return "\n".join(f"{p.to_string()} {prob}" for p, prob in dist.entries) + "\n"
