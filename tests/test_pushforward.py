"""The pushforward harness: the root inequality under every homomorphism
whose target has a closed form or a finite carrier, equality on split
polynomials, and the checks that do not depend on which homomorphism is
served."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    KRASNER,
    RATIONALS,
    DomainError,
    Homomorphism,
    NonEnumerableError,
    RationalField,
    build_quotient,
    count_roots_by_sign,
    padic_hom,
    parse_field,
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
    def nonzero_real_roots(p):
        by_sign = count_roots_by_sign(p)
        return {0: by_sign[0], 1: by_sign[1] + by_sign[-1]}

    hom = Homomorphism(RATIONALS, KRASNER, lambda x: int(x != 0),
                       "support", count_roots=nonzero_real_roots)
    p = poly(RATIONALS, expand_roots([0, 1, -2, 3], Fraction(2)))
    report = verify_pushforward(hom, p, [0, 1, -2, 3])
    assert report.ok and report.counts == report.bounds == {0: 1, 1: 3}


def test_hom_without_closed_form_is_rejected():
    # Q has neither a closed form for its roots nor a finite carrier
    hom = Homomorphism(RATIONALS, RATIONALS, lambda x: x, "id")
    with pytest.raises(NonEnumerableError, match="cannot be enumerated over Q"):
        verify_pushforward(hom, poly(RATIONALS, [1, 1]))


def test_wrong_source_and_zero_polynomial_are_rejected():
    with pytest.raises(DomainError, match="maps polynomials over Q"):
        verify_pushforward(sign_hom(), poly(KRASNER, [1, 1]))
    with pytest.raises(DomainError, match="zero polynomial"):
        verify_pushforward(sign_hom(), poly(RATIONALS, []))


def test_source_is_checked_by_instance():
    projection = quotient_projection(build_quotient(7, [2]))
    with pytest.raises(DomainError, match="maps polynomials over Fp:7"):
        verify_pushforward(projection, poly(parse_field("Fp:11"), [10, 1]))
    with pytest.raises(DomainError, match="maps polynomials over Q"):
        verify_pushforward(sign_hom(), poly(RationalField(), [1, 1]))


def test_projection_bounds_come_from_the_quotient_search():
    projection = quotient_projection(build_quotient(7, [2]))
    p = poly(projection.source, [2, 4, 1])  # (T - 1)(T - 2) over F_7
    assert verify_pushforward(projection, p).bounds == {1: 2, 3: 2}


def test_split_hint_needs_a_rational_source():
    projection = quotient_projection(build_quotient(7, [2]))
    p = poly(projection.source, [2, 4, 1])
    with pytest.raises(DomainError, match="roots over Q, not over Fp:7"):
        verify_pushforward(projection, p, [1, 2])


# quotients F_p / G, named by p and generators of G
QUOTIENTS = [(7, [2]), (7, [6]), (11, [3]), (11, [10]), (13, [3]), (13, [5]), (13, [12])]


def classical_roots_by_coset(q):
    """Roots of a polynomial over F_p with multiplicity, found by repeated
    synthetic division at every residue, grouped by their coset in ``q``."""
    def count(p):
        counts = Counter()
        for r in range(q.p):
            c = list(p.values())
            while len(c) > 1:
                acc, quotient = 0, []
                for x in reversed(c):  # Horner, highest coefficient first
                    acc = (acc * r + x) % q.p
                    quotient.append(acc)
                if quotient.pop():  # the remainder p(r)
                    break
                c = quotient[::-1]
                counts[q.coset_of[r]] += 1
        return dict(counts)
    return count


@st.composite
def _projected_polys(draw):
    p, gens = draw(st.sampled_from(QUOTIENTS))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
                  .filter(lambda c: c[-1] != 0))
    return p, gens, coeffs


@settings(max_examples=300, deadline=None)
@given(case=_projected_polys())
def test_projection_inequality_against_brute_force(case):
    p, gens, coeffs = case
    q = build_quotient(p, gens)
    hom = dataclasses.replace(quotient_projection(q),
                              count_roots=classical_roots_by_coset(q))
    report = verify_pushforward(hom, poly(hom.source, coeffs))
    assert report.ok, (report.counts, report.bounds)


def test_padic_hom_checks_its_prime_once_built():
    with pytest.raises(DomainError, match="4 is not prime"):
        padic_hom(4)
