"""Hyperfield arithmetic rules, hypersums, membership, and the axiom checker."""

import itertools
from fractions import Fraction

import pytest

from hyperpoly import (
    INF,
    DomainError,
    FiniteHyperfield,
    FiniteSet,
    KRASNER,
    PHASE,
    SIGN,
    TROPICAL,
    TropicalRay,
    WEAK_SIGN,
    check_axioms,
    build_quotient,
    PrimeField,
    RationalField,
)


def fset(field, *values):
    return FiniteSet(field, frozenset(values))


class TestInstanceRules:
    def test_sign_opposite_pair_sums_to_everything(self):
        s = SIGN.hyperadd_values(1, -1)
        assert s == fset(SIGN, 0, 1, -1)

    def test_sign_neutral(self):
        assert SIGN.hyperadd_values(0, 1) == fset(SIGN, 1)

    def test_sign_equal_arguments(self):
        assert SIGN.hyperadd_values(1, 1) == fset(SIGN, 1)
        assert SIGN.hyperadd_values(-1, -1) == fset(SIGN, -1)

    def test_weak_sign_equal_arguments(self):
        assert WEAK_SIGN.hyperadd_values(1, 1) \
            == fset(WEAK_SIGN, 1, -1)

    def test_krasner_one_plus_one(self):
        assert KRASNER.hyperadd_values(1, 1) \
            == fset(KRASNER, 0, 1)

    def test_tropical_equal_arguments_give_ray(self):
        s = TROPICAL.hyperadd_values(Fraction(3), Fraction(3))
        assert s == TropicalRay(TROPICAL, Fraction(3))

    def test_tropical_distinct_arguments_give_min(self):
        s = TROPICAL.hyperadd_values(Fraction(1), Fraction(4))
        assert s == fset(TROPICAL, Fraction(1))

    def test_phase_antipodal_arguments(self):
        s = PHASE.hyperadd_values(Fraction(0), Fraction(1))
        assert s == fset(PHASE, None, Fraction(0), Fraction(1))

    def test_tropical_mul_is_addition(self):
        assert TROPICAL.mul(TROPICAL.element(2), TROPICAL.element(5)).value == 7

    def test_sign_negation(self):
        assert SIGN.neg(SIGN.element(1)).value == -1

    def test_phase_angles_multiply_mod_two(self):
        a = PHASE.element(Fraction(2, 3))
        assert PHASE.mul(a, a).value == Fraction(4, 3)

    def test_tropical_hyperinverse_is_identity(self):
        for v in (Fraction(5), Fraction(-1, 2), INF):
            assert TROPICAL.neg(TROPICAL.element(v)).value == v

    @pytest.mark.parametrize("field, s", [
        (PHASE, PHASE.hyperadd_values(Fraction(0), Fraction(1, 2))),
        (TROPICAL, TROPICAL.hyperadd_values(Fraction(1), Fraction(1))),
    ], ids=["P-arc", "T-ray"])
    def test_zero_times_an_infinite_sum_is_zero(self, field, s):
        assert field.scale_set_value(field.zero_value(), s) == \
            fset(field, field.zero_value())


class TestHypersum:
    def test_sign_recursive_union(self):
        # (1+1)={1}, then 1+(-1)={0,1,-1}
        assert SIGN.hypersum_values([1, 1, -1]) == fset(SIGN, 0, 1, -1)

    def test_tropical_min_attained_twice_gives_ray(self):
        terms = [Fraction(v) for v in (2, 2, 5)]
        assert TROPICAL.hypersum_values(terms) == TropicalRay(TROPICAL, Fraction(2))

    def test_krasner_pair(self):
        assert KRASNER.hypersum_values([1, 1]) == fset(KRASNER, 0, 1)

    def test_empty_sum_is_zero(self):
        assert SIGN.hypersum_values([]) == fset(SIGN, 0)
        assert TROPICAL.hypersum_values([]) == fset(TROPICAL, INF)

    @pytest.mark.parametrize("field", [SIGN, WEAK_SIGN, KRASNER])
    def test_order_independence_exhaustive(self, field):
        values = field.carrier_values()
        for terms in itertools.product(values, repeat=3):
            expected = field.hypersum_values(terms)
            for perm in itertools.permutations(terms):
                assert field.hypersum_values(perm) == expected

    def test_tropical_closed_form_matches_recursive_union(self):
        # the minimum of the finite terms, alone once, a ray when repeated
        grid = TROPICAL.sample_values()
        for n in range(1, 5):
            for terms in itertools.product(grid, repeat=n):
                finite = [v for v in terms if v is not INF]
                if not finite:
                    closed = FiniteSet(TROPICAL, frozenset({INF}))
                elif finite.count(min(finite)) == 1:
                    closed = FiniteSet(TROPICAL, frozenset({min(finite)}))
                else:
                    closed = TropicalRay(TROPICAL, min(finite))
                assert TROPICAL.hypersum_values(terms) == closed, terms

    def test_tropical_sum_contains_inf_iff_min_repeats(self):
        grid = TROPICAL.sample_values()
        for n in range(1, 5):
            for terms in itertools.product(grid, repeat=n):
                s = TROPICAL.hypersum_values(terms)
                finite = [v for v in terms if v is not INF]
                expects_inf = (not finite) or finite.count(min(finite)) >= 2
                assert s.contains_value(INF) == expects_inf


class TestMembership:
    def test_ray_membership(self):
        ray = TropicalRay(TROPICAL, Fraction(3))
        assert ray.contains_value(Fraction(10))
        assert ray.contains_value(INF)
        assert ray.contains_value(Fraction(3))
        assert not ray.contains_value(Fraction(5, 2))

    def test_arc_membership(self):
        s = PHASE.hyperadd_values(Fraction(0), Fraction(2, 3))
        assert s.contains_value(Fraction(1, 3))
        assert not s.contains_value(Fraction(1))
        assert not s.contains_value(Fraction(0))  # arcs are open


class TestErrors:
    def test_cross_instance_mix(self):
        with pytest.raises(DomainError):
            SIGN.mul(SIGN.element(1), WEAK_SIGN.element(1))
        with pytest.raises(DomainError):
            TROPICAL.mul(TROPICAL.element(1), SIGN.element(1))

    def test_bad_element_values(self):
        with pytest.raises(DomainError):
            SIGN.element(2)
        with pytest.raises(DomainError):
            TROPICAL.element("1.5")

    # K's tables, to drop or change an entry of
    MUL = {(0, 0): 0, (0, 1): 0, (1, 1): 1}
    ADD = {(0, 0): {0}, (0, 1): {1}, (1, 1): {0, 1}}

    @pytest.mark.parametrize("one, mul, add, message", [
        (1, {(0, 1): 0}, ADD, "x: no product of 0 and 0 in the carrier"),
        (1, MUL | {(0, 1): 2}, ADD, "x: no product of 0 and 1 in the carrier"),
        # four keys, as many as the pairs, but (2, 2) stands for (1, 1)
        (1, {(0, 0): 0, (0, 1): 0, (2, 2): 1}, ADD,
         "x: no product of 1 and 1 in the carrier"),
        (1, MUL, {(0, 0): {0}, (0, 1): {1}}, "x: no sum of 1 and 1 in the carrier"),
        (1, MUL, ADD | {(1, 1): {1, 2}}, "x: no sum of 1 and 1 in the carrier"),
        (2, MUL, ADD, "x: zero and one must lie in the carrier"),
    ], ids=["missing product", "foreign product", "foreign pair", "missing sum",
            "foreign sum", "foreign one"])
    def test_incomplete_tables_are_refused(self, one, mul, add, message):
        with pytest.raises(DomainError) as info:
            FiniteHyperfield("x", [0, 1], 0, one, mul, add)
        assert str(info.value) == message


class TestAxioms:
    @pytest.mark.parametrize("field", [
        SIGN, KRASNER, WEAK_SIGN, PrimeField(5), PrimeField(7),
        RationalField(), TROPICAL, PHASE,
    ], ids=lambda f: f.name)
    def test_named_instances_pass(self, field):
        report = check_axioms(field)
        assert report.passed, [c.axiom for c in report.failing()]

    def test_quotient_passes(self):
        report = check_axioms(build_quotient(7, [2]))
        assert report.passed

    def test_finite_checks_are_exhaustive_infinite_sampled(self):
        assert check_axioms(SIGN).exhaustive
        assert not check_axioms(TROPICAL).exhaustive
        assert not check_axioms(PHASE).exhaustive

    def test_corrupted_sign_table_fails_with_witness(self):
        bad_add = dict(SIGN.add_table)
        bad_add[(1, 1)] = frozenset({-1})
        bad = FiniteHyperfield("S-corrupt", [0, 1, -1], 0, 1,
                               SIGN.mul_table, bad_add)
        report = check_axioms(bad)
        assert not report.passed
        failed = report.failing()
        assert any(c.axiom in ("associativity", "reversibility") for c in failed)
        assert all(c.witness for c in failed)

    def test_unique_inverse_exhaustively(self):
        for field in (SIGN, KRASNER, WEAK_SIGN, PrimeField(7),
                      build_quotient(7, [2])):
            zero, values = field.zero_value(), field.carrier_values()
            for a in values:
                matches = [x for x in values
                           if field.hyperadd_values(a, x).contains_value(zero)]
                assert matches == [field.neg_value(a)]

    def test_phase_report_carries_convention_note(self):
        report = check_axioms(PHASE)
        assert any("quotient model" in n for n in report.notes)
