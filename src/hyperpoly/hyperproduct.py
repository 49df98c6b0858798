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
