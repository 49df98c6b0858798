"""Roots, quotient enumeration, recursive multiplicities, and the set-valued
polynomial operations."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from hyperpoly import (
    INF,
    DomainError,
    KRASNER,
    NonEnumerableError,
    PHASE,
    RationalField,
    SIGN,
    TROPICAL,
    TropicalRay,
    WEAK_SIGN,
    divides_with_quotient,
    eval_hyperset,
    format_poly,
    hyper_mul_poly,
    hyper_product,
    is_root,
    multiplicity,
    parse_poly,
    poly,
    quotients,
    witness_chain_valid,
)
from hyperpoly import ratpoly

RATIONALS = RationalField()


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


def div_exact(p, q) -> list:
    """Long division of rational polynomials that must leave no remainder."""
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q) and rem:
        k = len(rem) - len(q)
        c = rem[-1] / lead
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = ratpoly.normalize(rem)
    if rem:
        raise DomainError("inexact polynomial division")
    return ratpoly.normalize(quo)


def classical_multiplicity(coeffs, root):
    """Oracle: repeated exact division by (T - root) over the rationals."""
    p = ratpoly.normalize(coeffs)
    m = 0
    while p and eval_at(p, root) == 0:
        p = div_exact(p, [-Fraction(root), Fraction(1)])
        m += 1
    return m


class TestEvalAndRoots:
    def test_sign_cubic_has_one_as_root(self):
        p = poly(SIGN, [1, -1, -1, 1])
        s = eval_hyperset(p, SIGN.element(1))
        assert s.contains_value(SIGN.zero_value())

    def test_tropical_triple_zero_coefficients(self):
        p = poly(TROPICAL, [0, 0, 0])
        s = eval_hyperset(p, TROPICAL.element(0))
        assert s == TropicalRay(TROPICAL, Fraction(0))
        assert s.contains_value(INF)

    def test_zero_constant_term_makes_zero_a_root(self):
        for field in (SIGN, KRASNER, WEAK_SIGN, TROPICAL, PHASE):
            p = poly(field, [field.zero_value(), field.one_value(),
                             field.one_value()])
            assert is_root(p, field.zero())

    def test_weak_sign_quadratic(self):
        p = poly(WEAK_SIGN, [1, 1, 1])
        assert is_root(p, WEAK_SIGN.element(1))

    def test_sign_sum_of_squares_has_no_root_at_one(self):
        p = poly(SIGN, [1, 0, 1])
        assert not is_root(p, SIGN.element(1))

    def test_instance_mismatch(self):
        p = poly(SIGN, [1, 1])
        with pytest.raises(DomainError):
            eval_hyperset(p, WEAK_SIGN.element(1))


class TestQuotients:
    def test_sign_cubic_quotient_set(self):
        p = poly(SIGN, [1, -1, -1, 1])
        qs = quotients(p, SIGN.element(1))
        expected = {poly(SIGN, [-1, 0, 1]), poly(SIGN, [-1, 1, 1]),
                    poly(SIGN, [-1, -1, 1])}
        assert set(qs) == expected

    def test_non_root_has_no_quotients(self):
        p = poly(SIGN, [1, 0, 1])
        assert quotients(p, SIGN.element(1)) == ()

    def test_weak_sign_square_factor(self):
        p = poly(WEAK_SIGN, [1, 1, 1])
        qs = quotients(p, WEAK_SIGN.element(-1))
        assert poly(WEAK_SIGN, [1, 1]) in qs

    def test_zero_root_unique_shift(self):
        p = poly(KRASNER, [0, 1, 1])
        qs = quotients(p, KRASNER.element(0))
        assert qs == (poly(KRASNER, [1, 1]),)

    def test_tropical_and_phase_quotients_not_enumerable(self):
        with pytest.raises(NonEnumerableError):
            quotients(poly(TROPICAL, [1, 0]), TROPICAL.element(1))
        with pytest.raises(NonEnumerableError):
            quotients(poly(PHASE, [0, 0]), PHASE.element(1))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            quotients(poly(SIGN, []), SIGN.element(1))

    @pytest.mark.parametrize("field", [SIGN, KRASNER, WEAK_SIGN],
                             ids=lambda f: f.name)
    def test_every_quotient_divides_via_hyperproduct(self, field):
        # Independent re-check: p must be a member of (T-a) * q.
        values = field.carrier_values()
        for vec in itertools.product(values, repeat=4):
            p = poly(field, vec)
            if p.is_zero():
                continue
            for a in field.elements():
                for q in quotients(p, a):
                    t_minus_a = poly(field, [field.neg_value(a.value), field.one_value()])
                    assert p in hyper_mul_poly(t_minus_a, q)
                    assert divides_with_quotient(p, a, q)


class TestLemmaEquivalence:
    @pytest.mark.parametrize("field", [SIGN, KRASNER, WEAK_SIGN],
                             ids=lambda f: f.name)
    def test_root_iff_quotient_exists(self, field):
        values = field.carrier_values()
        for vec in itertools.product(values, repeat=5):
            p = poly(field, vec)
            if p.is_zero():
                continue
            for a in field.elements():
                assert is_root(p, a) == bool(quotients(p, a))


class TestMultiplicity:
    def test_sign_cubic_double_root(self):
        p = poly(SIGN, [1, -1, -1, 1])
        rep = multiplicity(p, SIGN.element(1))
        assert rep.multiplicity == 2
        assert rep.method == "recursive"
        assert witness_chain_valid(p, rep)

    def test_search_leaves_no_garbage_cycles(self):
        # the degree-12 golden case: its memo is freed when the call returns
        p = poly(SIGN, [-1, 1, 1, 1, 0, -1, 0, 1, 1, 1, 0, -1, -1])
        gc.collect()
        gc.disable()
        try:
            assert multiplicity(p, SIGN.element(-1)).multiplicity == 8
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weak_sign_double_roots_exceed_degree(self):
        p = poly(WEAK_SIGN, [1, 1, 1])
        m1 = multiplicity(p, WEAK_SIGN.element(1))
        m2 = multiplicity(p, WEAK_SIGN.element(-1))
        assert m1.multiplicity == 2 and m2.multiplicity == 2
        assert witness_chain_valid(p, m1) and witness_chain_valid(p, m2)

    def test_krasner_prefix_and_tail(self):
        p = poly(KRASNER, [0, 1, 1])
        assert multiplicity(p, KRASNER.element(0)).multiplicity == 1
        assert multiplicity(p, KRASNER.element(1)).multiplicity == 1

    def test_zero_element_order_is_lowest_nonzero_index(self):
        p = poly(SIGN, [0, 0, 0, -1, 1])
        rep = multiplicity(p, SIGN.element(0))
        assert rep.multiplicity == 3
        assert rep.method == "zero-order"
        assert witness_chain_valid(p, rep)

    def test_zero_iff_not_root(self):
        for vec in itertools.product((0, 1, -1), repeat=4):
            p = poly(SIGN, vec)
            if p.is_zero():
                continue
            for a in SIGN.elements():
                rep = multiplicity(p, a)
                assert (rep.multiplicity == 0) == (not is_root(p, a))

    def test_phase_nonzero_root_multiplicity_unsupported(self):
        p = poly(PHASE, [0, 0, 0])
        with pytest.raises(NonEnumerableError):
            multiplicity(p, PHASE.element(1))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            multiplicity(poly(SIGN, []), SIGN.element(1))

    def test_tropical_delegates_to_polygon_rule(self):
        p = poly(TROPICAL, [2, 0, 1, INF, -1, 0])
        rep = multiplicity(p, TROPICAL.element(Fraction(1, 3)))
        assert rep.multiplicity == 3
        assert rep.method == "newton-polygon"
        assert witness_chain_valid(p, rep)

    def test_field_instance_matches_classical_oracle(self):
        rng = random.Random(7)
        pool = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] \
            + [Fraction(1, 2), Fraction(-1, 2)]
        for _ in range(40):
            deg = rng.randint(1, 6)
            roots = [rng.choice(pool) for _ in range(deg)]
            coeffs = expand_roots(roots, Fraction(rng.choice((1, -1, 2))))
            p = poly(RATIONALS, coeffs)
            for at in set(roots) | {Fraction(5), Fraction(0)}:
                rep = multiplicity(p, RATIONALS.element(at))
                assert rep.multiplicity == classical_multiplicity(coeffs, at)
                assert witness_chain_valid(p, rep)


class TestPolynomialHyperoperations:
    def test_sign_square_of_monic_linear(self):
        t_minus_one = poly(SIGN, [-1, 1])
        result = hyper_mul_poly(t_minus_one, t_minus_one)
        assert result == frozenset({poly(SIGN, [1, -1, 1])})

    def test_sign_opposite_linear_factors(self):
        product = hyper_mul_poly(poly(SIGN, [-1, 1]), poly(SIGN, [1, 1]))
        expected = {poly(SIGN, [-1, a, 1]) for a in (0, 1, -1)}
        assert product == frozenset(expected)

    def test_field_linear_factors_multiply_classically(self):
        product = hyper_mul_poly(poly(RATIONALS, [-1, 1]), poly(RATIONALS, [1, 1]))
        assert product == frozenset({poly(RATIONALS, [-1, 0, 1])})

    def test_liu_association_orders_differ(self):
        factors = [poly(SIGN, [-1, 1]), poly(SIGN, [-1, 1]), poly(SIGN, [1, 1])]
        grouped_first = hyper_product(factors, "((1 2) 3)")
        grouped_last = hyper_product(factors, "(1 (2 3))")
        all_pairs = {poly(SIGN, [1, b, a, 1])
                     for a in (0, 1, -1) for b in (0, 1, -1)}
        either_minus = {poly(SIGN, [1, b, a, 1])
                        for a in (0, 1, -1) for b in (0, 1, -1)
                        if a == -1 or b == -1}
        assert grouped_first == frozenset(all_pairs)
        assert grouped_last == frozenset(either_minus)
        assert len(grouped_first) == 9 and len(grouped_last) == 5

    def test_product_membership_does_not_imply_root(self):
        # T^3+T^2+T+1 sits in ((T-1)(T-1))(T+1) yet 1 is not a root.
        factors = [poly(SIGN, [-1, 1]), poly(SIGN, [-1, 1]), poly(SIGN, [1, 1])]
        grouped_first = hyper_product(factors, "((1 2) 3)")
        p = poly(SIGN, [1, 1, 1, 1])
        assert p in grouped_first
        assert not is_root(p, SIGN.element(1))

    def test_single_factor_product(self):
        p = poly(SIGN, [-1, 1])
        assert hyper_product([p]) == frozenset({p})

    def test_default_association_is_left_nested(self):
        factors = [poly(SIGN, [-1, 1]), poly(SIGN, [-1, 1]), poly(SIGN, [1, 1])]
        assert hyper_product(factors) == hyper_product(factors, "((1 2) 3)")

    def test_association_tree_validation(self):
        factors = [poly(SIGN, [-1, 1]), poly(SIGN, [1, 1])]
        with pytest.raises(DomainError):
            hyper_product(factors, "(1 1)")

    def test_tropical_products_not_enumerable(self):
        with pytest.raises(NonEnumerableError):
            hyper_mul_poly(poly(TROPICAL, [1, 0]), poly(TROPICAL, [1, 0]))


class TestSignMultiplicitySums:
    def test_sum_of_multiplicities_bounded_by_degree(self):
        for vec in itertools.product((0, 1, -1), repeat=6):
            p = poly(SIGN, vec)
            if p.is_zero():
                continue
            total = sum(multiplicity(p, a).multiplicity
                        for a in SIGN.elements())
            assert total <= p.degree

    def test_weak_sign_breaks_the_degree_bound(self):
        p = poly(WEAK_SIGN, [1, 1, 1])
        total = sum(multiplicity(p, a).multiplicity for a in WEAK_SIGN.elements())
        assert total == 4 > p.degree


class TestTextFormat:
    def test_roundtrip(self):
        for field, text in [(SIGN, "1,-1,-1,1"), (TROPICAL, "2,0,1,inf,-1,0"),
                            (RATIONALS, "6,-7,0,1"), (RATIONALS, "1/2,-3/4,1")]:
            p = parse_poly(field, text)
            assert format_poly(p) == text
            assert parse_poly(field, format_poly(p)) == p

    def test_trailing_zeros_warn(self):
        with pytest.warns(UserWarning):
            p = parse_poly(SIGN, "1,1,0")
        assert p == poly(SIGN, [1, 1])

    def test_zero_polynomial(self):
        p = parse_poly(RATIONALS, "0")
        assert p.is_zero()
        assert format_poly(p) == "0"
