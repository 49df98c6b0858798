"""Polynomials over a hyperfield: evaluation, roots, quotient enumeration,
recursive root multiplicities, and the set-valued polynomial operations."""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterable, Sequence

from .core import (
    DomainError,
    Element,
    FiniteSet,
    FrozenRecord,
    Hyperfield,
    HyperSet,
    NonEnumerableError,
    ParseError,
)


class Poly(FrozenRecord):
    """Raw coefficient values c0..cn (ascending degree) over one hyperfield.

    Normalized: the top coefficient is nonzero; the zero polynomial is the
    empty tuple.  The constructor trusts its values; use :func:`poly` to
    check them.
    """

    __slots__ = ("field", "raw")

    def __init__(self, field: Hyperfield, raw: tuple):
        _set_poly_field(self, field)
        _set_poly_raw(self, raw)

    def __eq__(self, other):
        return ((self.field, self.raw) == (other.field, other.raw)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.field, self.raw))

    def is_zero(self) -> bool:
        return not self.raw

    @property
    def degree(self) -> int:
        if self.is_zero():
            raise DomainError("the zero polynomial has no degree")
        return len(self.raw) - 1

    def values(self) -> tuple:
        return self.raw

    @property
    def coeffs(self) -> tuple:
        """The coefficients as :class:`Element` values, built on demand."""
        return tuple(Element(self.field, v) for v in self.raw)

    def __repr__(self) -> str:
        return f"Poly({self.field.name}: {format_poly(self)})"


_set_poly_field, _set_poly_raw = Poly.field.__set__, Poly.raw.__set__


def _stripped(values: tuple, zero) -> tuple:
    """``values`` without trailing zeros."""
    n = len(values)
    while n and values[n - 1] == zero:
        n -= 1
    return values[:n]


def poly(field: Hyperfield, values: Iterable) -> Poly:
    """Build a normalized polynomial from raw values, checking each once."""
    return Poly(field, _stripped(tuple(field.validate_value(v) for v in values),
                                 field.zero_value()))


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    return ",".join(p.field.format_value(v) for v in p.values())


def split_parts(text: str, sep: str = ",") -> list[str]:
    """The stripped parts of a ``sep``-separated list; an empty part is an error."""
    parts = [s.strip() for s in text.split(sep)]
    if "" in parts:
        raise ParseError(f"empty entry in {text!r}")
    return parts


def parse_poly(field: Hyperfield, text: str) -> Poly:
    """Parse the comma-separated ascending coefficient format.

    Trailing zero coefficients are stripped with a warning; ``0`` denotes the
    zero polynomial.
    """
    text = text.strip()
    if text == "0" and field.parse_value("0") == field.zero_value():
        return Poly(field, ())
    values = [field.parse_value(s) for s in split_parts(text)]
    p = poly(field, values)
    if len(p.values()) != len(values):
        warnings.warn("trailing zero coefficients stripped from polynomial input",
                      stacklevel=2)
    return p


def poly_sort_key(p: Poly):
    return (len(p.values()), tuple(p.field.sort_key(v) for v in p.values()))


# -- evaluation and roots --------------------------------------------------


def eval_hyperset(p: Poly, a: Element) -> HyperSet:
    """The hypersum of c_i * a^i; ``a`` is a root iff it contains zero."""
    F = p.field
    F.check_member(a)
    terms, power = [], F.one_value()
    for c in p.values():
        terms.append(F.mul_values(c, power))
        power = F.mul_values(power, a.value)
    return F.hypersum_values(terms)


def is_root(p: Poly, a: Element) -> bool:
    return eval_hyperset(p, a).contains_value(p.field.zero_value())


class _Transitions:
    """One search's quotient transitions, for one F and one a.

    Each value gets a small id the first time it appears, and a layer, the
    set of values one chain position can take, is the bitset of their ids.
    ``members`` holds each layer's values in sort order; ``steps`` maps
    ``(c_i, layer)`` to the next layer and, for each d_{i-1} in it, the
    sorted d_i it is reached from; ``starts`` maps ``(c_0, layer)`` to the
    sorted d_0 with -a*d_0 = c_0.  No table outlives its search.
    """

    __slots__ = ("ids", "members", "steps", "starts")

    def __init__(self):
        self.ids, self.members, self.steps, self.starts = {}, {}, {}, {}

    def layer(self, F: Hyperfield, values) -> int:
        ids, bits = self.ids, 0
        for v in values:
            bits |= 1 << ids.setdefault(v, len(ids))
        if bits not in self.members:
            self.members[bits] = sorted(values, key=F.sort_key)
        return bits

    def step(self, F: Hyperfield, a, ci, layer: int) -> tuple:
        up = {}
        for d in self.members[layer]:
            for e in F.hyperadd_raw(ci, F.mul_values(a, d)):
                up.setdefault(e, []).append(d)
        return self.layer(F, up), up


def _quotients_raw(F: Hyperfield, c: tuple, a, table: _Transitions) -> list:
    """Raw coefficient tuples of all q with c in (T - a) q, in canonical order.

    ``c`` is a normalized nonzero coefficient tuple and ``a`` a raw value.
    Reversibility turns membership into d_{n-1} = c_n, d_{i-1} in c_i + a*d_i
    and c_0 = -a*d_0.  A forward pass from c_n finds the reachable d_i per
    layer and the edges d_i -> d_{i-1}; the walk starts from the reachable
    d_0 with -a*d_0 = c_0 and extends upward along the edges in sort order.
    Every partial chain completes, and the chains come out in canonical
    order.  ``table`` caches the layers, edges and starts for one F and a
    (see :class:`_Transitions`): a search meets the same coefficient over
    the same layer again and again, and then reads it with one lookup.
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
    steps, layer = table.steps, table.layer(F, (c[n],))
    ups = []  # per layer, d_{i-1} -> the sorted d_i it is reached from
    for i in range(n - 1, 0, -1):
        hit = steps.get((c[i], layer))
        if hit is None:
            hit = steps[(c[i], layer)] = table.step(F, a, c[i], layer)
        layer, up = hit
        ups.append(up)
    starts = table.starts.get((c[0], layer))
    if starts is None:
        starts = table.starts[(c[0], layer)] = [
            d for d in table.members[layer] if F.neg_value(F.mul_values(a, d)) == c[0]]
    chains = [(d,) for d in starts]
    for up in reversed(ups):
        chains = [chain + (d,) for chain in chains for d in up[chain[-1]]]
    return chains


def quotients(p: Poly, a: Element) -> tuple:
    """All q with p in (T - a) q, in canonical order (see :func:`_quotients_raw`).

    Requires finitely enumerable hypersums; for a = 0 the single candidate
    d_i = c_{i+1} works over any instance.
    """
    F = p.field
    F.check_member(a)
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    return tuple(Poly(F, q) for q in _quotients_raw(F, p.values(), a.value,
                                                      _Transitions()))


def divides_with_quotient(p: Poly, a: Element, q: Poly) -> bool:
    """Membership test p in (T - a) q, checked coefficient by coefficient.

    Works over every instance, including ones with non-enumerable hypersums,
    because only binary hyperadditions are consulted.
    """
    F = p.field
    F.check_member(a)
    c, d, av = p.values(), q.values(), a.value
    n = len(d)
    if q.field is not F or n == 0 or len(c) != n + 1:
        return False
    if c[n] != d[n - 1] or c[0] != F.neg_value(F.mul_values(av, d[0])):
        return False
    return all(F.hyperadd_values(F.neg_value(F.mul_values(av, d[i])), d[i - 1])
               .contains_value(c[i]) for i in range(1, n))


class MultReport(FrozenRecord):
    """A root multiplicity with its provenance and a replayable witness chain.

    The chain lists successive quotient polynomials: p in (T-a) chain[0],
    chain[0] in (T-a) chain[1], and so on; its length equals the multiplicity.
    ``method`` is "recursive", "newton-polygon" or "zero-order".
    """

    __slots__ = ("element", "multiplicity", "method", "witness")

    def __init__(self, element: Element, multiplicity: int, method: str, witness: tuple):
        self._init(element, multiplicity, method, witness)


def multiplicity(p: Poly, a: Element) -> MultReport:
    """Root multiplicity of ``a``: zero for non-roots, else one more than the
    best quotient.

    The zero element is handled directly (the unique-quotient chain strips the
    lowest coefficient), the instance's ``rule_multiplicity`` may answer by a
    closed form (the Newton polygon over ``T``), and other instances without
    enumerable hypersums are rejected.  The search runs on raw values.  The
    witness takes the first quotient in canonical order that attains the
    maximum; the scan stops once that meets the bound below, which is never
    below the multiplicity.

    If q in (T - a) d at a unit a, then d[deg-1] = q[deg], d[i] = 0 below
    ord (from q[0] = -a d[0] up) and q[ord] = -a d[ord]: d keeps q[deg] and
    ord, and its lowest coefficient is -q[ord]/a.  So every state is T^ord
    times a state of the search on c[ord:], in the same canonical order; the
    search runs there and pads its witness at the end.  A chain of length
    n = deg - ord ends in q[deg] T^ord, so it needs q[ord] = (-a)^n q[deg].
    At depth k the lowest coefficient and (-a)^(n-k) have both gained the
    factor (-1/a)^k, so every state shares the test's outcome, and the bound
    is its length less 1 if the test holds at the top, else less 2.  The
    memo and the :class:`_Transitions` table live for one call, so the memo's
    keys are the raw coefficient tuples.
    """
    F = p.field
    F.check_member(a)
    if p.is_zero():
        raise DomainError("multiplicity is undefined for the zero polynomial")
    zero = F.zero_value()
    c = p.values()
    if a.value == zero:
        r = next(i for i, v in enumerate(c) if v != zero)
        chain = tuple(Poly(F, c[i:]) for i in range(1, r + 1))
        return MultReport(a, r, "zero-order", chain)
    report = F.rule_multiplicity(p, a)
    if report is not None:
        return report
    if not F.enumerable_sums:
        raise NonEnumerableError(
            f"{F.name}: multiplicity away from zero needs finite hypersums")
    av, low = a.value, next(i for i, v in enumerate(c) if v != zero)
    c, power = c[low:], F.one_value()
    for _ in range(len(c) - 1):
        power = F.mul_values(power, F.neg_value(av))
    gap = 1 if c[0] == F.mul_values(power, c[-1]) else 2
    table, memo = _Transitions(), {}

    def rec(q: tuple):
        best = (0, ())
        for cand in _quotients_raw(F, q, av, table):
            m, chain = memo.get(cand) or rec(cand)  # entries are nonempty tuples
            if m + 1 > best[0]:
                best = (m + 1, (cand,) + chain)
                if best[0] == len(q) - gap:
                    break
        memo[q] = best
        return best

    try:
        m, chain = rec(c)
    finally:
        del rec  # rec refers to itself; the cycle would keep memo alive
    pad = p.values()[:low]
    return MultReport(a, m, "recursive", tuple(Poly(F, pad + q) for q in chain))


def roots(p: Poly) -> dict:
    """The nonzero root multiplicities of ``p`` by raw value: the instance's
    ``rule_roots`` (sign changes over ``S``, the Newton polygon over ``T``),
    else :func:`multiplicity` at each value of a finite carrier."""
    F = p.field
    if p.is_zero():
        raise DomainError("the zero polynomial has no well-defined roots")
    found = F.rule_roots(p)
    if found is not None:
        return found
    if not F.is_finite():
        raise NonEnumerableError(f"roots cannot be enumerated over {F.name}")
    mults = {a.value: multiplicity(p, a).multiplicity for a in F.elements()}
    return {v: m for v, m in mults.items() if m}


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


HYPERPRODUCT_CHOICE_LIMIT = 10**6


def _choices(sums: list, spent: list) -> set:
    """Every raw coefficient tuple whose i-th value is chosen from ``sums[i]``.

    ``spent[0]`` counts one hyperoperation's choices so far; a step that would
    take it past ``HYPERPRODUCT_CHOICE_LIMIT`` is refused before it runs.
    """
    if not all(isinstance(s, FiniteSet) for s in sums):
        raise NonEnumerableError(
            "polynomial hyperoperations need finitely enumerable hypersums")
    options = [s.values for s in sums]
    spent[0] += math.prod(map(len, options))
    if spent[0] > HYPERPRODUCT_CHOICE_LIMIT:
        raise DomainError(f"enumeration would reach {spent[0]} coefficient choices, "
                          f"more than the limit {HYPERPRODUCT_CHOICE_LIMIT}")
    return set(itertools.product(*options))


def _mul_raw(F: Hyperfield, c: tuple, d: tuple, sums: dict, spent: list) -> set:
    """Raw tuples of the Cauchy-product hypersum of nonzero ``c`` and ``d``;
    ``sums`` caches each tuple of terms' hypersum.  The top option is the
    unit ``c[n] d[m]`` alone, so no tuple has a trailing zero."""
    n, m = len(c) - 1, len(d) - 1
    options = []
    for i in range(n + m + 1):
        terms = tuple(F.mul_values(c[k], d[i - k])
                      for k in range(max(0, i - m), min(n, i) + 1))
        s = sums.get(terms)
        if s is None:
            s = sums[terms] = F.hypersum_values(terms)
        options.append(s)
    return _choices(options, spent)


def hyper_mul_poly(p: Poly, q: Poly) -> frozenset:
    """Cauchy-product hypersum: every choice of e_i in sum of c_k d_l, k+l=i."""
    if q.field is not p.field:
        raise DomainError("polynomials over different instances")
    return hyper_product([p, q])


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
    1-based factor indices, as text for :func:`parse_assoc`; the default is
    the left-nested order.  Products are enumerated as raw coefficient
    tuples, within ``HYPERPRODUCT_CHOICE_LIMIT`` choices in all; a zero factor
    makes the product ``{0}``.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("hyperproduct of no factors")
    F = factors[0].field
    for f in factors:
        if f.field is not F:
            raise DomainError("factors over different instances")
    tree = (left_nested_assoc(len(factors)) if association is None
            else parse_assoc(association))
    if sorted(_tree_leaves(tree)) != list(range(1, len(factors) + 1)):
        raise DomainError("association tree must use each factor index once")
    if any(f.is_zero() for f in factors):
        return frozenset({Poly(F, ())})
    sums, spent = {}, [0]

    def ev(node) -> set:
        if isinstance(node, int):
            return {factors[node - 1].values()}
        out = set()
        for c, d in itertools.product(ev(node[0]), ev(node[1])):
            out |= _mul_raw(F, c, d, sums, spent)
        return out

    try:
        return frozenset(Poly(F, t) for t in ev(tree))
    finally:
        del ev  # ev refers to itself; the cycle would keep the factors alive
