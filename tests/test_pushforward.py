"""The pushforward harness: the root inequality under every homomorphism
that carries the two hooks, equality on split polynomials, and the checks
that do not depend on which homomorphism is served."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    KRASNER,
    RATIONALS,
    DomainError,
    Homomorphism,
    build_quotient,
    count_roots_by_sign,
    multiplicity,
    padic_hom,
    poly,
    quotient_projection,
    sign_hom,
    verify_pushforward,
)
from hyperpoly import ratpoly


def expand_roots(roots, lead=Fraction(1)) -> list:
    """Expand lead * prod (T - r) over the given roots."""
    p = [Fraction(lead)]
    for r in roots:
        p = ratpoly.mul(p, [-Fraction(r), Fraction(1)])
    return p


HOMS = [sign_hom(), padic_hom(2), padic_hom(3)]
IDS = [hom.rule for hom in HOMS]

_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
_polys = st.lists(_rationals, min_size=1, max_size=8).filter(lambda c: c[-1] != 0)
_roots = st.lists(st.sampled_from([Fraction(x) for x in
                                   ("0", "1", "-1", "2", "-2", "3", "-3", "4",
                                    "1/2", "-1/2", "1/3", "6", "-9/2")]),
                  max_size=7)
_leads = _rationals.filter(lambda c: c != 0)


@pytest.mark.parametrize("hom", HOMS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(coeffs=_polys)
def test_inequality_holds_on_random_polynomials(hom, coeffs):
    p = poly(RATIONALS, coeffs)
    report = verify_pushforward(hom, p)
    assert report.ok and not report.split_certified
    assert report.image.values() == tuple(hom(c).value for c in p.coeffs)
    assert all(m > 0 for m in report.bounds.values())


@pytest.mark.parametrize("hom", HOMS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(roots=_roots, lead=_leads)
def test_equality_on_split_polynomials(hom, roots, lead):
    p = poly(RATIONALS, expand_roots(roots, lead))
    report = verify_pushforward(hom, p, roots)
    assert report.ok and report.split_certified
    assert report.counts == report.bounds
    assert sum(report.bounds.values()) == p.degree


def test_newton_bounds_cover_the_degree():
    p = poly(RATIONALS, [-2, 0, 1])
    assert verify_pushforward(padic_hom(2), p).bounds == {Fraction(1, 2): 2}


def test_hint_is_cross_checked_against_the_counter():
    wrong = dataclasses.replace(sign_hom(), count_roots=lambda p: {1: 1})
    p = poly(RATIONALS, [6, -7, 0, 1])
    assert not verify_pushforward(wrong, p, [1, 2, -3]).ok


def test_hint_must_expand_to_the_polynomial():
    with pytest.raises(DomainError, match="does not expand"):
        verify_pushforward(padic_hom(2), poly(RATIONALS, [2, -3, 1]), [1, 1])


def test_any_hom_with_hooks_is_served():
    # Q -> K, x -> (x != 0); multiplicities over K come from the search
    def krasner_roots(q):
        mults = {b: multiplicity(q, KRASNER.element(b)).multiplicity for b in (0, 1)}
        return {b: m for b, m in mults.items() if m}

    def nonzero_real_roots(p):
        by_sign = count_roots_by_sign(p)
        return {0: by_sign[0], 1: by_sign[1] + by_sign[-1]}

    hom = Homomorphism(RATIONALS, KRASNER, lambda x: int(x != 0),
                       "support", image_roots=krasner_roots,
                       count_roots=nonzero_real_roots)
    p = poly(RATIONALS, expand_roots([0, 1, -2, 3], Fraction(2)))
    report = verify_pushforward(hom, p, [0, 1, -2, 3])
    assert report.ok and report.counts == report.bounds == {0: 1, 1: 3}


def test_hom_without_closed_form_is_rejected():
    hom = quotient_projection(build_quotient(7, [2]))
    with pytest.raises(DomainError, match="no closed form"):
        verify_pushforward(hom, poly(hom.source, [1, 1]))


def test_wrong_source_and_zero_polynomial_are_rejected():
    with pytest.raises(DomainError, match="maps polynomials over Q"):
        verify_pushforward(sign_hom(), poly(KRASNER, [1, 1]))
    with pytest.raises(DomainError, match="zero polynomial"):
        verify_pushforward(sign_hom(), poly(RATIONALS, []))


def test_padic_hom_checks_its_prime_once_built():
    with pytest.raises(DomainError, match="4 is not prime"):
        padic_hom(4)
