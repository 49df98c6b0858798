"""Hyperproducts of polynomials under an association tree, enumerated as raw
coefficient tuples; behind :func:`hyperpoly.polynomial.hyper_product`, which
loads this module on its first call."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from .core import DomainError, FiniteSet, Hyperfield, NonEnumerableError, ParseError
from .polynomial import Poly


HYPERPRODUCT_CHOICE_LIMIT = 10**6


def _windows(t: tuple, m: int) -> list:
    """The window of ``t`` that meets each coefficient of its product with a
    factor of degree ``m``: the run of the coefficients it multiplies in."""
    return [t[max(0, i - m):i + 1] for i in range(len(t) + m)]


def _mul_box(F: Hyperfield, left: list, right: list, table: dict, spent: list) -> list:
    """The box of the Cauchy-product hypersum of nonzero ``c`` and ``d``: the
    i-th coefficient is chosen from the i-th entry.

    ``left`` and ``right`` hold the windows of ``c`` and of ``d`` reversed
    that meet each coefficient, and ``table`` maps a pair of windows to the
    values of their terms' hypersum, checked enumerable once, when it is
    entered.  ``spent[0]`` counts one hyperoperation's choices so far, every
    box's counted whether or not it is enumerated later; a box that would
    take it past ``HYPERPRODUCT_CHOICE_LIMIT`` is refused before any is
    enumerated.  The top entry is the unit ``c[n] d[m]`` alone, so no tuple
    has a trailing zero.
    """
    options = list(map(table.get, zip(left, right)))
    for i, values in enumerate(options):
        if values is None:
            s = F.hypersum_values(tuple(map(F.mul_values, left[i], right[i])))
            if not isinstance(s, FiniteSet):
                raise NonEnumerableError(
                    "polynomial hyperoperations need finitely enumerable hypersums")
            options[i] = table[left[i], right[i]] = s.values
    spent[0] += math.prod(map(len, options))
    if spent[0] > HYPERPRODUCT_CHOICE_LIMIT:
        raise DomainError(f"enumeration would reach {spent[0]} coefficient choices, "
                          f"more than the limit {HYPERPRODUCT_CHOICE_LIMIT}")
    return options


def _mul_sets(F: Hyperfield, left: set, right: set, table: dict, spent: list) -> set:
    """The union of the products of every ``c`` in ``left`` and ``d`` in
    ``right``, as raw tuples, which all have one length.

    Each operand's windows are cut once (see :func:`_mul_box`).  Every box is
    built and budgeted first; the boxes are then enumerated in the same
    order until the union fills their bounding box, the product of the
    per-position unions, which holds every later box.
    """
    n, m = len(next(iter(left))) - 1, len(next(iter(right))) - 1
    cuts = {c: _windows(c, m) for c in left}
    rcuts = {d: _windows(d[::-1], n)[::-1] for d in right}
    boxes = [_mul_box(F, cuts[c], rcuts[d], table, spent)
             for c, d in itertools.product(left, right)]
    bound = math.prod(len(frozenset().union(*column)) for column in zip(*boxes))
    out = set()
    for j, box in enumerate(boxes):
        out |= set(itertools.product(*box))
        if len(out) == bound:
            break
    # a union sizes the table for its operand first, and the table sets the order the
    # node above reads ``out`` in: each later box is unioned as a subset of its size
    subsets = {}
    for box in boxes[j + 1:]:
        size = math.prod(map(len, box))
        if size not in subsets:
            subsets[size] = set(itertools.islice(out, size))
        out |= subsets[size]
    return out


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


def _evaluate(F: Hyperfield, node, factors: list, table: dict, spent: list) -> set:
    if isinstance(node, int):
        return {factors[node - 1].values()}
    return _mul_sets(F, _evaluate(F, node[0], factors, table, spent),
                     _evaluate(F, node[1], factors, table, spent), table, spent)


def hyper_product(factors: Sequence[Poly], association=None) -> frozenset:
    """Evaluate a hyperproduct of polynomials under a given association tree.

    Hypermultiplication is not associative in general, so different trees can
    give genuinely different sets.  ``association`` is a nested-pair tree of
    1-based factor indices, as text for :func:`parse_assoc`; the default is
    the left-nested order, folded, so it has no depth limit.  Products are
    enumerated as raw coefficient tuples (see :func:`_mul_sets`), within
    ``HYPERPRODUCT_CHOICE_LIMIT`` choices counted over every box; a zero
    factor makes the product ``{0}``.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("hyperproduct of no factors")
    F = factors[0].field
    for f in factors:
        if f.field is not F:
            raise DomainError("factors over different instances")
    tree = None if association is None else parse_assoc(association)
    if tree is not None and sorted(_tree_leaves(tree)) != list(range(1, len(factors) + 1)):
        raise DomainError("association tree must use each factor index once")
    if any(f.is_zero() for f in factors):
        return frozenset({Poly(F, ())})
    table, spent = {}, [0]
    if tree is not None:
        out = _evaluate(F, tree, factors, table, spent)
    else:  # the left-nested default, whose leaves are 1..n, as a fold
        out = {factors[0].values()}
        for f in factors[1:]:
            out = _mul_sets(F, out, {f.values()}, table, spent)
    return frozenset(Poly(F, t) for t in out)
