"""Sign changes, the sign rule under the pushforward harness, and the
Sturm tower root counter against sympy."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    DomainError,
    RATIONALS,
    SIGN,
    count_roots_by_sign,
    multiplicity,
    poly,
    roots,
    sign_changes,
    sign_hom,
    sign_hyperfield,
    substitute_neg,
    verify_pushforward,
)
from hyperpoly import ratpoly
from hyperpoly.pushforward import split_poly_corpus

X = sympy.Symbol("x")


def sympy_sign_counts(coeffs, distinct=False) -> dict:
    """Oracle: real roots of an ascending coefficient list by sign, from
    sympy's exact root isolation (with multiplicity unless ``distinct``)."""
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(coeffs)], X)
    roots = sympy.real_roots(p)
    if distinct:
        roots = set(roots)
    counts = {-1: 0, 0: 0, 1: 0}
    for r in roots:
        counts[int(sympy.sign(r))] += 1
    return counts


def expand_roots(roots, lead=Fraction(1)) -> list:
    """Expand lead * prod (T - r) over the given roots."""
    p = [Fraction(lead)]
    for r in roots:
        p = ratpoly.mul(p, [-Fraction(r), Fraction(1)])
    return p


def eval_at(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def descartes(p, roots=None):
    return verify_pushforward(sign_hom(), p, roots)


class TestSignChanges:
    def test_examples(self):
        assert sign_changes(poly(SIGN, [1, -1, -1, 1])) == 2
        assert sign_changes(poly(SIGN, [1, 0, 1])) == 0
        assert sign_changes(poly(SIGN, [1, 0, -1, 0, 1])) == 2

    def test_monomial_has_none(self):
        assert sign_changes(poly(SIGN, [0, 0, 1])) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            sign_changes(poly(SIGN, []))

    def test_wrong_field_rejected(self):
        with pytest.raises(DomainError):
            sign_changes(poly(RATIONALS, [1, -1]))


class TestDirectMultiplicities:
    def test_cubic(self):
        p = poly(SIGN, [1, -1, -1, 1])
        assert sign_changes(p) == 2
        assert sign_changes(substitute_neg(p)) == 1

    def test_monomials(self):
        for n in range(1, 5):
            p = poly(SIGN, [0] * n + [1])
            assert sign_changes(p) == 0
            assert sign_changes(substitute_neg(p)) == 0

    def test_matches_recursion_up_to_degree_four(self):
        one, minus = SIGN.element(1), SIGN.element(-1)
        for vec in itertools.product((0, 1, -1), repeat=5):
            p = poly(SIGN, vec)
            if p.is_zero():
                continue
            assert sign_changes(p) == multiplicity(p, one).multiplicity
            assert sign_changes(substitute_neg(p)) == multiplicity(p, minus).multiplicity


def search_roots(p) -> dict:
    """Nonzero multiplicities at 0, 1 and -1 from the quotient search."""
    F = p.field
    mults = {v: multiplicity(p, F.element(v)).multiplicity for v in (0, 1, -1)}
    return {v: m for v, m in mults.items() if m}


class TestSignRoots:
    def test_closed_form_matches_search_up_to_degree_six(self):
        checked = 0
        for n in range(1, 7):
            for vec in itertools.product((0, 1, -1), repeat=n):
                for lead in (1, -1):
                    p = poly(SIGN, vec + (lead,))
                    assert roots(p) == search_roots(p), vec + (lead,)
                    checked += 1
        assert checked == 2184

    def test_fresh_instance_has_the_closed_form(self):
        S = sign_hyperfield()
        assert S is not SIGN
        for vec in ([1, -1, -1, 1], [0, 0, 1, 1], [-1, 1, 0, -1, 1]):
            p = poly(S, vec)
            assert S.rule_roots(p) is not None
            assert roots(p) == search_roots(p)


class TestSubstituteNeg:
    def test_pointwise_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 7))]
            p = poly(RATIONALS, coeffs)
            q = substitute_neg(p)
            for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
                lhs = eval_at([c.value for c in q.coeffs] or [Fraction(0)], x)
                rhs = eval_at(coeffs, -x)
                assert lhs == rhs


class TestDescartesBound:
    def test_examples(self):
        def bound(coeffs):
            bounds = descartes(poly(RATIONALS, coeffs)).bounds
            return bounds.get(1, 0), bounds.get(-1, 0)

        assert bound([6, -7, 0, 1]) == (2, 1)
        assert bound([1, 1]) == (0, 1)
        assert bound([1, -2, 1]) == (2, 0)


class TestSturmOracle:
    def test_known_root_counts(self):
        # roots 1, 2, -3
        assert count_roots_by_sign(poly(RATIONALS, [6, -7, 0, 1]))[1] == 2
        # (T-1)^2 (T+1)
        assert count_roots_by_sign(poly(RATIONALS, [1, -1, -1, 1]))[1] == 2
        assert count_roots_by_sign(poly(RATIONALS, [1, 0, 1]))[1] == 0
        # (T-1)^2 (T+1) (T-1/2)^3
        coeffs = ratpoly.mul(
            expand_roots([Fraction(1), Fraction(1), Fraction(-1)]),
            expand_roots([Fraction(1, 2)] * 3))
        assert count_roots_by_sign(poly(RATIONALS, coeffs)) == {1: 5, -1: 1, 0: 0}

    def test_negative_side(self):
        assert count_roots_by_sign(poly(RATIONALS, [6, -7, 0, 1]))[-1] == 1
        assert count_roots_by_sign(poly(RATIONALS, [1, -1, -1, 1]))[-1] == 1

    def test_roots_at_zero_are_excluded(self):
        # T^2 (T - 1)
        p = poly(RATIONALS, [0, 0, -1, 1])
        assert count_roots_by_sign(p) == {1: 1, -1: 0, 0: 2}

    def test_counts_by_construction(self):
        rng = random.Random(11)
        pool = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2)]
        for _ in range(60):
            deg = rng.randint(1, 6)
            roots = [rng.choice(pool) for _ in range(deg)]
            p = poly(RATIONALS, expand_roots(roots, Fraction(1)))
            counts = count_roots_by_sign(p)
            assert counts[1] == sum(1 for r in roots if r > 0)
            assert counts[-1] == sum(1 for r in roots if r < 0)

    def test_full_line_consistency_per_squarefree_factor(self):
        # the first Sturm chain of a non-squarefree p, zero roots and all,
        # counts its distinct roots
        rng = random.Random(13)
        pool = [Fraction(v) for v in (0, 1, -1, 2, -2)] + [Fraction(-1, 2)]
        for _ in range(40):
            deg = rng.randint(1, 6)
            roots = [rng.choice(pool) for _ in range(deg)]
            coeffs = expand_roots(roots, Fraction(1))
            if rng.random() < 0.4:
                coeffs = ratpoly.mul(coeffs, [Fraction(1), Fraction(0), Fraction(1)])
            chain = ratpoly.sturm_chain(coeffs)
            vneg, v0m, v0p, vpos = (ratpoly.variations(column)
                                    for column in zip(*map(ratpoly._limit_signs, chain)))
            distinct = {-1: vneg - v0m, 0: int(coeffs[0] == 0), 1: v0p - vpos}
            assert distinct == sympy_sign_counts(coeffs, distinct=True)

    def test_one_sturm_chain_per_multiplicity_level(self, monkeypatch):
        # (T-1)^5 (T+2) (T^2+1): the gcds (T-1)^4, ..., (T-1) each get a
        # chain, and the constant after them does not
        chains, sturm_chain = [], ratpoly.sturm_chain
        monkeypatch.setattr(ratpoly, "sturm_chain",
                            lambda p: chains.append(p) or sturm_chain(p))
        coeffs = ratpoly.mul(expand_roots([Fraction(1)] * 5 + [Fraction(-2)]),
                             [Fraction(1), Fraction(0), Fraction(1)])
        assert count_roots_by_sign(poly(RATIONALS, coeffs)) == {1: 5, -1: 1, 0: 0}
        assert [ratpoly.degree(p) for p in chains] == [8, 4, 3, 2, 1]


class TestVerifyDescartes:
    def test_equality_on_certified_split(self):
        p = poly(RATIONALS, [6, -7, 0, 1])
        report = descartes(p, [1, 2, -3])
        assert report.ok and report.split_certified
        assert report.bounds[1] == report.counts[1] == 2
        assert report.bounds[-1] == report.counts[-1] == 1

    def test_inequality_without_hint(self):
        # (T-1)^2 (T^2+1): two positive roots against a bound of four
        coeffs = ratpoly.mul(expand_roots([Fraction(1), Fraction(1)]),
                             [Fraction(1), Fraction(0), Fraction(1)])
        report = descartes(poly(RATIONALS, coeffs))
        assert report.ok
        assert report.counts[1] == 2
        assert report.bounds[1] == 4

    def test_no_real_roots(self):
        report = descartes(poly(RATIONALS, [1, 1, 1]))
        assert report.ok and report.counts.get(1, 0) == 0 and report.bounds.get(1, 0) == 0

    def test_bad_hint_rejected(self):
        with pytest.raises(DomainError):
            descartes(poly(RATIONALS, [6, -7, 0, 1]), [1, 2, 3])

    def test_split_corpus_reaches_equality(self):
        reports = [descartes(p, roots) for p, roots in split_poly_corpus(60, seed=5)]
        assert len(reports) == 60
        assert all(r.ok for r in reports)
        assert all(r.bounds.get(1, 0) == r.counts.get(1, 0) for r in reports)

    def test_corpus_is_deterministic(self):
        a = [(str(p.values()), roots) for p, roots in split_poly_corpus(20, seed=9)]
        b = [(str(p.values()), roots) for p, roots in split_poly_corpus(20, seed=9)]
        assert a == b


# random rational coefficients; f * g^2 with deg f <= 4 and deg g <= 2 keeps
# the degree at most 8 and gives the counter repeated roots to find
_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_coeff_lists = st.lists(_rationals, min_size=1, max_size=5)


class TestSympyOracle:
    @settings(max_examples=60, deadline=None)
    @given(f=_coeff_lists.filter(lambda c: c[-1] != 0 and len(c) >= 2),
           g=st.lists(_rationals, min_size=1, max_size=3).filter(lambda c: c[-1] != 0))
    def test_counter_matches_sympy_real_roots(self, f, g):
        coeffs = ratpoly.mul(ratpoly.mul(f, g), g)
        assert count_roots_by_sign(poly(RATIONALS, coeffs)) == sympy_sign_counts(coeffs)
