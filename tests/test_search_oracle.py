"""The raw-value multiplicity search against an element-level reference.

The reference below is the element-level quotient enumeration and recursion
that the library used before its search moved to raw values: every step goes
through ``hyperadd``, ``mul`` and ``neg`` on checked elements.  The property
asks the raw search for the same quotients, the same multiplicity and a
witness chain that replays through the divisibility predicate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    KRASNER,
    SIGN,
    WEAK_SIGN,
    multiplicity,
    parse_field,
    poly,
    poly_from_elements,
    quotients,
    witness_chain_valid,
)
from hyperpoly.polynomial import Poly, poly_sort_key

# module-level references keep the parsed instances alive for the whole run
FIELDS = [SIGN, KRASNER, WEAK_SIGN, parse_field("Fp:5"), parse_field("quot:7:2")]


def reference_quotients(p, a) -> tuple:
    F = p.field
    n = p.degree
    if n == 0:
        return ()
    if a.value == F.zero_value():
        if p.coeffs[0].value == F.zero_value():
            return (Poly(F, p.coeffs[1:]),)
        return ()
    chains = [(p.coeffs[n],)]  # chains grow as (d_{n-1}, ..., d_i)
    for i in range(n - 1, 0, -1):
        ci = p.coeffs[i]
        nxt = []
        for chain in chains:
            options = F.hyperadd(ci, F.mul(a, chain[-1]))
            for d in options.enumerate():
                nxt.append(chain + (d,))
        chains = nxt
    c0 = p.coeffs[0]
    found = set()
    for chain in chains:
        if F.neg(F.mul(a, chain[-1])) == c0:
            found.add(poly_from_elements(F, tuple(reversed(chain))))
    return tuple(sorted(found, key=poly_sort_key))


def reference_multiplicity(p, a) -> int:
    memo = {}

    def rec(q):
        key = q.values()
        if key not in memo:
            memo[key] = max((1 + rec(c) for c in reference_quotients(q, a)),
                            default=0)
        return memo[key]

    return rec(p)


@st.composite
def polys(draw, field):
    values = field.carrier_values()
    coeffs = draw(st.lists(st.sampled_from(values), min_size=0, max_size=6))
    nonzero = [v for v in values if v != field.zero_value()]
    return poly(field, coeffs + [draw(st.sampled_from(nonzero))])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_raw_search_matches_element_reference(field):
    @settings(max_examples=40, deadline=None)
    @given(polys(field))
    def check(p):
        for a in field.elements():
            assert quotients(p, a) == reference_quotients(p, a)
            report = multiplicity(p, a)
            assert report.multiplicity == reference_multiplicity(p, a)
            assert witness_chain_valid(p, report)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_multiplicity_is_invariant_under_scaling(field):
    """mult_a(p) = mult_1(p(aT)): T -> aT is an automorphism of F[T]."""
    one = field.one_value()
    units = [v for v in field.carrier_values() if v != field.zero_value()]

    @settings(max_examples=40, deadline=None)
    @given(polys(field), st.sampled_from(units))
    def check(p, a):
        power = one
        scaled = []
        for c in p.values():
            scaled.append(field.mul_values(c, power))
            power = field.mul_values(power, a)
        assert (multiplicity(p, field.element(a)).multiplicity
                == multiplicity(poly(field, scaled), field.one()).multiplicity)

    check()
