"""Polynomials over a hyperfield: evaluation, roots, quotient enumeration,
recursive root multiplicities, and the set-valued polynomial operations."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    DomainError,
    Element,
    Hyperfield,
    HyperSet,
    NonEnumerableError,
    ParseError,
)


@dataclass(frozen=True)
class Poly:
    """Coefficients c0..cn (ascending degree) over one hyperfield.

    Normalized: the top coefficient is nonzero; the zero polynomial is the
    empty tuple.  Use :func:`poly` to construct from raw values.
    """

    field: Hyperfield
    coeffs: tuple

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if self.is_zero():
            raise DomainError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Element:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def values(self) -> tuple:
        return tuple(c.value for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.field.name}: {format_poly(self)})"


def poly(field: Hyperfield, values: Iterable) -> Poly:
    """Build a normalized polynomial from raw coefficient values."""
    coeffs = [field.element(v) for v in values]
    zero = field.zero_value()
    while coeffs and coeffs[-1].value == zero:
        coeffs.pop()
    return Poly(field, tuple(coeffs))


def poly_from_elements(field: Hyperfield, elems: Sequence[Element]) -> Poly:
    for e in elems:
        field.check_member(e)
    return poly(field, [e.value for e in elems])


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    return ",".join(p.field.format_value(c.value) for c in p.coeffs)


def parse_poly(field: Hyperfield, text: str) -> Poly:
    """Parse the comma-separated ascending coefficient format.

    Trailing zero coefficients are stripped with a warning; ``0`` denotes the
    zero polynomial.
    """
    text = text.strip()
    if text == "0" and field.parse_value("0") == field.zero_value():
        return Poly(field, ())
    parts = [s for s in text.split(",") if s.strip()]
    if not parts:
        raise ParseError("empty polynomial string")
    values = [field.parse_value(s) for s in parts]
    p = poly(field, values)
    if len(p.coeffs) != len(values):
        warnings.warn("trailing zero coefficients stripped from polynomial input",
                      stacklevel=2)
    return p


def poly_sort_key(p: Poly):
    return (len(p.coeffs), tuple(p.field.sort_key(c.value) for c in p.coeffs))


# -- evaluation and roots --------------------------------------------------


def eval_hyperset(p: Poly, a: Element) -> HyperSet:
    """The hypersum of c_i * a^i; ``a`` is a root iff it contains zero."""
    F = p.field
    F.check_member(a)
    terms = []
    power = F.one()
    for i, c in enumerate(p.coeffs):
        if i > 0:
            power = F.mul(power, a)
        terms.append(F.mul(c, power))
    return F.hypersum(terms)


def is_root(p: Poly, a: Element) -> bool:
    return eval_hyperset(p, a).contains(p.field.zero())


def linear_poly(field: Hyperfield, a: Element) -> Poly:
    """The monic linear polynomial T - a."""
    field.check_member(a)
    return poly_from_elements(field, (field.neg(a), field.one()))


def _quotients_raw(F: Hyperfield, c: tuple, a) -> list:
    """Raw coefficient tuples of all q with c in (T - a) q, in canonical order.

    ``c`` is a normalized nonzero coefficient tuple and ``a`` a raw value.
    """
    n = len(c) - 1
    if n == 0:
        return []
    zero = F.zero_value()
    if a == zero:
        return [c[1:]] if c[0] == zero else []
    if not F.enumerable_sums:
        raise NonEnumerableError(
            f"{F.name}: quotient enumeration needs finite hypersums")
    chains = [(c[n],)]  # chains grow as (d_{n-1}, ..., d_i)
    for i in range(n - 1, 0, -1):
        ci = c[i]
        chains = [chain + (d,) for chain in chains
                  for d in F.hyperadd_values(ci, F.mul_values(a, chain[-1])).values]
    found = {chain[::-1] for chain in chains
             if F.neg_value(F.mul_values(a, chain[-1])) == c[0]}
    return sorted(found, key=lambda q: tuple(map(F.sort_key, q)))


def quotients(p: Poly, a: Element) -> tuple:
    """All q with p in (T - a) q, via the backward recursion.

    Starting from d_{n-1} = c_n, each d_{i-1} ranges over c_i + a*d_i
    (reversibility turns the divisibility constraints into this form), and a
    chain survives iff c_0 = -a*d_0.  Requires finitely enumerable hypersums;
    for a = 0 the single candidate d_i = c_{i+1} works over any instance.
    """
    F = p.field
    F.check_member(a)
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    return tuple(poly(F, q) for q in _quotients_raw(F, p.values(), a.value))


def divides_with_quotient(p: Poly, a: Element, q: Poly) -> bool:
    """Membership test p in (T - a) q, checked coefficient by coefficient.

    Works over every instance, including ones with non-enumerable hypersums,
    because only binary hyperadditions are consulted.
    """
    F = p.field
    F.check_member(a)
    if p.is_zero() or q.is_zero():
        return False
    n = p.degree
    if n == 0 or q.degree != n - 1:
        return False
    d = q.coeffs
    if p.coeffs[n] != d[n - 1]:
        return False
    if p.coeffs[0] != F.neg(F.mul(a, d[0])):
        return False
    for i in range(1, n):
        s = F.hyperadd(F.neg(F.mul(a, d[i])), d[i - 1])
        if not s.contains(p.coeffs[i]):
            return False
    return True


@dataclass(frozen=True)
class MultReport:
    """A root multiplicity with its provenance and a replayable witness chain.

    The chain lists successive quotient polynomials: p in (T-a) chain[0],
    chain[0] in (T-a) chain[1], and so on; its length equals the multiplicity.
    """

    element: Element
    multiplicity: int
    method: str  # "recursive" | "sign-rule" | "newton-polygon" | "zero-order"
    witness: tuple


def multiplicity(p: Poly, a: Element, memo: Optional[dict] = None) -> MultReport:
    """Root multiplicity of ``a``: zero for non-roots, else one more than the
    best quotient.

    The zero element is handled directly (the unique-quotient chain strips the
    lowest coefficient), the instance's ``rule_multiplicity`` may answer by a
    closed form (the Newton polygon over ``T``), and other instances without
    enumerable hypersums are rejected.  The search runs on raw values.
    ``memo`` may be shared across calls; its keys hold the instance.
    """
    F = p.field
    F.check_member(a)
    if p.is_zero():
        raise DomainError("multiplicity is undefined for the zero polynomial")
    zero = F.zero_value()
    if a.value == zero:
        r = next(i for i, c in enumerate(p.coeffs) if c.value != zero)
        chain = tuple(Poly(F, p.coeffs[i:]) for i in range(1, r + 1))
        return MultReport(a, r, "zero-order", chain)
    report = F.rule_multiplicity(p, a)
    if report is not None:
        return report
    if not F.enumerable_sums:
        raise NonEnumerableError(
            f"{F.name}: multiplicity away from zero needs finite hypersums")
    if memo is None:
        memo = {}
    av = a.value

    def rec(q: tuple):
        key = (F, q, av)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = (0, ())
        for cand in _quotients_raw(F, q, av):
            m, chain = rec(cand)
            if m + 1 > best[0]:
                best = (m + 1, (cand,) + chain)
        memo[key] = best
        return best

    m, chain = rec(p.values())
    return MultReport(a, m, "recursive", tuple(poly(F, q) for q in chain))


def witness_chain_valid(p: Poly, report: MultReport) -> bool:
    """Replay a witness chain through the direct divisibility predicate."""
    if len(report.witness) != report.multiplicity:
        return False
    current = p
    for q in report.witness:
        if not divides_with_quotient(current, report.element, q):
            return False
        current = q
    return True


# -- polynomial hyperoperations ---------------------------------------------


def _choices(F: Hyperfield, sums: list) -> frozenset:
    """Every polynomial whose i-th coefficient is chosen from ``sums[i]``."""
    if not all(s.is_finite() for s in sums):
        raise NonEnumerableError(
            "polynomial hyperoperations need finitely enumerable hypersums")
    return frozenset(poly(F, combo)
                     for combo in itertools.product(*(s.values for s in sums)))


def hyper_add_poly(p: Poly, q: Poly) -> frozenset:
    """Coefficientwise hypersum: every choice of e_i in c_i + d_i."""
    F = p.field
    if q.field is not F:
        raise DomainError("polynomials over different instances")
    n = max(len(p.coeffs), len(q.coeffs))
    return _choices(F, [F.hyperadd(p.coeff(i), q.coeff(i)) for i in range(n)])


def hyper_mul_poly(p: Poly, q: Poly) -> frozenset:
    """Cauchy-product hypersum: every choice of e_i in sum of c_k d_l, k+l=i."""
    F = p.field
    if q.field is not F:
        raise DomainError("polynomials over different instances")
    if p.is_zero() or q.is_zero():
        return frozenset({Poly(F, ())})
    n, m = p.degree, q.degree
    return _choices(F, [F.hypersum([F.mul(p.coeffs[k], q.coeffs[i - k])
                                    for k in range(max(0, i - m), min(n, i) + 1)])
                        for i in range(n + m + 1)])


ASSOC_MAX_DEPTH = 256


def parse_assoc(text: str):
    """Parse an association tree over 1-based factor indices: ``((1 2) 3)``.

    The parser keeps an explicit stack of open nodes.  Trees nested more than
    ``ASSOC_MAX_DEPTH`` levels deep are rejected, because evaluating a tree
    recurses once per level.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack = [[]]  # the subtrees read so far, one list per open node
    for tok in tokens:
        if tok == "(":
            if len(stack) > ASSOC_MAX_DEPTH:
                raise ParseError("association tree nested more than "
                                 f"{ASSOC_MAX_DEPTH} levels deep")
            stack.append([])
            continue
        if tok == ")":
            if len(stack) == 1:
                raise ParseError("unexpected ')' in association tree")
            node = tuple(stack.pop())
            if len(node) != 2:
                raise ParseError("association nodes must pair exactly two subtrees")
        else:
            try:
                node = int(tok)
            except ValueError:
                raise ParseError(f"bad token {tok!r} in association tree") from None
        stack[-1].append(node)
    if len(stack) != 1 or not stack[0]:
        raise ParseError("unbalanced association tree")
    if len(stack[0]) != 1:
        raise ParseError("trailing tokens in association tree")
    return stack[0][0]


def _tree_leaves(tree) -> list:
    if isinstance(tree, int):
        return [tree]
    return _tree_leaves(tree[0]) + _tree_leaves(tree[1])


def left_nested_assoc(n: int):
    tree = 1
    for i in range(2, n + 1):
        tree = (tree, i)
    return tree


def hyper_product(factors: Sequence[Poly], association=None) -> frozenset:
    """Evaluate a hyperproduct of polynomials under a given association tree.

    Hypermultiplication is not associative in general, so different trees can
    give genuinely different sets.  ``association`` is a nested-pair tree of
    1-based factor indices (string or parsed form); the default is the
    left-nested order.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("hyperproduct of no factors")
    F = factors[0].field
    for f in factors:
        if f.field is not F:
            raise DomainError("factors over different instances")
    if association is None:
        tree = left_nested_assoc(len(factors))
    elif isinstance(association, str):
        tree = parse_assoc(association)
    else:
        tree = association
    if sorted(_tree_leaves(tree)) != list(range(1, len(factors) + 1)):
        raise DomainError("association tree must use each factor index once")

    def ev(node) -> frozenset:
        if isinstance(node, int):
            return frozenset({factors[node - 1]})
        left, right = ev(node[0]), ev(node[1])
        out = set()
        for u in left:
            for v in right:
                out |= hyper_mul_poly(u, v)
        return frozenset(out)

    return ev(tree)
