"""The degree bound as an oracle for ``roots``.

Over a field the roots of p number at most deg p, counted with
multiplicity.  The same bound holds over ``S`` (sign changes of p and of
p(-T), plus the order at zero), ``K`` (one unit, at most deg - ord) and
``T`` (the Newton polygon's segment lengths and the order at inf sum to
deg).  It fails for hyperfields in general: two counterexamples are pinned.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    INF,
    KRASNER,
    SIGN,
    TROPICAL,
    expand_roots,
    hyper_mul_poly,
    parse_field,
    parse_poly,
    poly,
    roots,
)
from hyperpoly.polynomial import poly_sort_key

FINITE = [SIGN, KRASNER] + [parse_field(f"Fp:{p}") for p in (5, 7, 11, 13)]
FIELDS = FINITE[2:]  # classical: a product of linear factors has deg roots


def _nonzero(field):
    return [v for v in field.carrier_values() if v != field.zero_value()]


@st.composite
def random_polys(draw, field):
    coeffs = draw(st.lists(st.sampled_from(field.carrier_values()), max_size=6))
    return poly(field, coeffs + [draw(st.sampled_from(_nonzero(field)))])


@st.composite
def split_polys(draw, field):
    """c T^j times one to six factors T - a, each product drawn from the
    hyperproduct (over a field, the product)."""
    p = poly(field, [field.zero_value()] * draw(st.integers(0, 2))
             + [draw(st.sampled_from(_nonzero(field)))])
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.sampled_from(_nonzero(field)))
        t_minus_a = poly(field, [field.neg_value(a), field.one_value()])
        p = draw(st.sampled_from(sorted(hyper_mul_poly(t_minus_a, p), key=poly_sort_key)))
    return p


TROPICAL_VALUES = st.one_of(st.just(INF), st.fractions(-4, 4, max_denominator=3))


@st.composite
def random_tropical_polys(draw):
    coeffs = draw(st.lists(TROPICAL_VALUES, max_size=6))
    return poly(TROPICAL, coeffs + [draw(st.fractions(-4, 4, max_denominator=3))])


@st.composite
def split_tropical_polys(draw):
    """A tropical scalar times the monic polynomial with the drawn roots."""
    monic = expand_roots(draw(st.lists(TROPICAL_VALUES, min_size=1, max_size=6)))
    c = draw(st.fractions(-4, 4, max_denominator=3))
    return poly(TROPICAL, [v if v is INF else v + c for v in monic.values()])


def total(p) -> int:
    return sum(roots(p).values())


@pytest.mark.parametrize("field", FINITE, ids=lambda f: f.name)
def test_roots_number_at_most_the_degree(field):
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(random_polys(field), split_polys(field)))
    def check(p):
        assert total(p) <= p.degree

    check()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_split_polynomials_over_a_field_have_degree_many_roots(field):
    @settings(max_examples=15, deadline=None)
    @given(split_polys(field))
    def check(p):
        assert total(p) == p.degree

    check()


@settings(max_examples=60, deadline=None)
@given(random_tropical_polys(), split_tropical_polys())
def test_tropical_roots_number_at_most_the_degree(p, split):
    assert total(p) <= p.degree
    assert total(split) == split.degree


@pytest.mark.parametrize("spec, coeffs, found", [
    ("W", "-1,0,0,-1,1,-1,-1", {1: 6, -1: 6}),
    ("quot:7:2", "1,3,1,3,0,0,1", {1: 6, 3: 6}),
])
def test_the_bound_fails_for_hyperfields_in_general(spec, coeffs, found):
    p = parse_poly(parse_field(spec), coeffs)
    assert p.degree == 6
    assert roots(p) == found
