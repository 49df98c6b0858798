"""The raw hyperproduct enumeration against the ``Poly``-level one.

The reference below is the enumeration the library used before its
hyperoperations moved to raw coefficient tuples, kept verbatim apart from
the ``ref_`` names: every candidate coefficient choice becomes a checked,
normalized ``Poly``, and a hyperproduct multiplies every pair of ``Poly``
results through the library's two-factor product, here ``ref_mul_poly``.
The properties ask the library for the same sets, under random association
trees and with zero factors, and for the same products of two factors.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    KRASNER,
    RATIONALS,
    SIGN,
    TROPICAL,
    WEAK_SIGN,
    DomainError,
    FiniteSet,
    NonEnumerableError,
    Poly,
    hyper_product,
    parse_field,
    poly,
)
from hyperpoly.core import Hyperfield
from hyperpoly.hyperproduct import _tree_leaves, parse_assoc

# module-level references keep the parsed instances alive for the whole run
FIELDS = [SIGN, KRASNER, WEAK_SIGN, parse_field("Fp:5"), parse_field("quot:7:2"),
          RATIONALS]


def _normalized(field: Hyperfield, values: list) -> Poly:
    """The polynomial of checked ``values``, trailing zeros stripped."""
    zero = field.zero_value()
    while values and values[-1] == zero:
        values.pop()
    return Poly(field, tuple(values))


def ref_choices(F: Hyperfield, sums: list) -> frozenset:
    """Every polynomial whose i-th coefficient is chosen from ``sums[i]``."""
    if not all(isinstance(s, FiniteSet) for s in sums):
        raise NonEnumerableError(
            "polynomial hyperoperations need finitely enumerable hypersums")
    return frozenset(_normalized(F, list(combo))
                     for combo in itertools.product(*(s.values for s in sums)))


def ref_mul_poly(p: Poly, q: Poly) -> frozenset:
    """Cauchy-product hypersum: every choice of e_i in sum of c_k d_l, k+l=i."""
    F = p.field
    if q.field is not F:
        raise DomainError("polynomials over different instances")
    if p.is_zero() or q.is_zero():
        return frozenset({Poly(F, ())})
    c, d = p.values(), q.values()
    n, m = len(c) - 1, len(d) - 1
    return ref_choices(F, [F.hypersum_values(F.mul_values(c[k], d[i - k])
                                             for k in range(max(0, i - m), min(n, i) + 1))
                           for i in range(n + m + 1)])


def ref_left_nested_assoc(n: int):
    tree = 1
    for i in range(2, n + 1):
        tree = (tree, i)
    return tree


def ref_hyper_product(factors, association=None) -> frozenset:
    """Evaluate a hyperproduct of polynomials under a given association tree."""
    factors = list(factors)
    if not factors:
        raise DomainError("hyperproduct of no factors")
    F = factors[0].field
    for f in factors:
        if f.field is not F:
            raise DomainError("factors over different instances")
    tree = (ref_left_nested_assoc(len(factors)) if association is None
            else parse_assoc(association))
    if sorted(_tree_leaves(tree)) != list(range(1, len(factors) + 1)):
        raise DomainError("association tree must use each factor index once")

    def ev(node) -> frozenset:
        if isinstance(node, int):
            return frozenset({factors[node - 1]})
        out = set()
        for u, v in itertools.product(ev(node[0]), ev(node[1])):
            out |= ref_mul_poly(u, v)
        return frozenset(out)

    try:
        return ev(tree)
    finally:
        del ev


def _values(F) -> list:
    return F.carrier_values() if F.is_finite() else [-2, -1, 0, 1, 2]


@st.composite
def _polys(draw, F, max_degree: int = 2) -> Poly:
    """A polynomial of degree 0 to ``max_degree``, sometimes zero."""
    if draw(st.integers(0, 5)) == 0:
        return poly(F, [])
    return poly(F, draw(st.lists(st.sampled_from(_values(F)),
                                 min_size=1, max_size=max_degree + 1)))


@st.composite
def _trees(draw, leaves: list) -> str:
    """A random association tree over ``leaves``, as text."""
    if len(leaves) == 1:
        return str(leaves[0])
    k = draw(st.integers(1, len(leaves) - 1))
    return f"({draw(_trees(leaves[:k]))} {draw(_trees(leaves[k:]))})"


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hyper_product_matches_the_poly_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    factors = data.draw(st.lists(_polys(F), min_size=1, max_size=5))
    order = data.draw(st.permutations(range(1, len(factors) + 1)))
    tree = data.draw(_trees(list(order)))
    assert hyper_product(factors, tree) == ref_hyper_product(factors, tree)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_factor_products_match_the_poly_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    p, q = data.draw(_polys(F, max_degree=3)), data.draw(_polys(F, max_degree=3))
    assert hyper_product([p, q]) == ref_mul_poly(p, q)


# linear factors, up to as many as the reference multiplies in well under a
# second: the nodes of a random tree over them both fill their bounding box
# and fall short of it
LINEAR_FACTORS = [(SIGN, 8), (WEAK_SIGN, 7), (parse_field("quot:13:3"), 6)]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_hyper_product_of_linear_factors_matches_the_poly_reference(data):
    F, most = data.draw(st.sampled_from(LINEAR_FACTORS))
    units = [v for v in F.carrier_values() if v != F.zero_value()]
    linear = st.lists(st.sampled_from(units), min_size=2, max_size=2)
    factors = [poly(F, c) for c in data.draw(st.lists(linear, min_size=5, max_size=most))]
    tree = data.draw(_trees(list(range(1, len(factors) + 1))))
    assert hyper_product(factors, tree) == ref_hyper_product(factors, tree)


# a right operand that holds more tuples than the left: each node's windows
# of its larger operand are cut once, and every box still pairs them in order
RIGHT_HEAVY_TREES = ["(1 ((2 3) 4))", "(1 (2 (3 (4 5))))"]


@pytest.mark.parametrize("tree", RIGHT_HEAVY_TREES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_right_heavy_trees_match_the_poly_reference(tree, data):
    F = data.draw(st.sampled_from([SIGN, WEAK_SIGN, KRASNER, parse_field("quot:7:2")]))
    units = [v for v in F.carrier_values() if v != F.zero_value()]
    lower = st.lists(st.sampled_from(F.carrier_values()), min_size=1, max_size=2)
    factors = [poly(F, data.draw(lower) + [data.draw(st.sampled_from(units))])
               for _ in _tree_leaves(parse_assoc(tree))]
    assert hyper_product(factors, tree) == ref_hyper_product(factors, tree)


def test_tropical_hyperproducts_are_not_enumerated():
    """T's sum of two equal terms is a ray, so the box is refused."""
    with pytest.raises(NonEnumerableError, match="finitely enumerable hypersums"):
        hyper_product([poly(TROPICAL, [0, 0]), poly(TROPICAL, [0, 0])])
