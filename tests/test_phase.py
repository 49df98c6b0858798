"""Phase hyperfield arithmetic: arcs, antipodal triples, hypersums, and the
infinite-root quadratic."""

import itertools
from fractions import Fraction

import pytest

from hyperpoly import (
    FiniteSet,
    PHASE,
    PhaseArc,
    check_axioms,
    eval_hyperset,
    is_root,
    poly,
)


def angle(q):
    return PHASE.validate_value(Fraction(q))


def members(s, qs):
    return {q for q in qs if s.contains_value(angle(q))}


SAMPLE_ANGLES = [Fraction(n, 24) for n in range(48)]


class TestBinaryRules:
    def test_minor_arc(self):
        s = PHASE.hyperadd_values(angle(0), angle(Fraction(2, 3)))
        assert isinstance(s, PhaseArc)
        assert s.contains_value(angle(Fraction(1, 3)))
        assert not s.contains_value(angle(0))
        assert not s.contains_value(angle(Fraction(2, 3)))
        assert not s.contains_value(PHASE.zero_value())

    def test_minor_arc_goes_the_short_way(self):
        s = PHASE.hyperadd_values(angle(Fraction(1, 4)), angle(Fraction(7, 4)))
        assert s.contains_value(angle(0))
        assert not s.contains_value(angle(1))

    def test_antipodal_triple(self):
        s = PHASE.hyperadd_values(angle(Fraction(1, 2)), angle(Fraction(3, 2)))
        assert s == FiniteSet(PHASE, frozenset({None, Fraction(1, 2),
                                                Fraction(3, 2)}))

    def test_equal_arguments_collapse(self):
        s = PHASE.hyperadd_values(angle(Fraction(2, 3)), angle(Fraction(2, 3)))
        assert s == FiniteSet(PHASE, frozenset({Fraction(2, 3)}))

    def test_zero_is_neutral(self):
        s = PHASE.hyperadd_values(PHASE.zero_value(), angle(Fraction(5, 3)))
        assert s == FiniteSet(PHASE, frozenset({Fraction(5, 3)}))

    def test_commutative_on_grid(self):
        grid = PHASE.sample_values()
        for x, y in itertools.product(grid, repeat=2):
            assert PHASE.hyperadd_values(x, y) == PHASE.hyperadd_values(y, x)


class TestHypersums:
    def test_half_circle_from_three_directions(self):
        # 1 + i + (-1): every ray x - z + iy with x, y, z > 0
        terms = [angle(0), angle(Fraction(1, 2)), angle(1)]
        s = PHASE.hypersum_values(terms)
        assert members(s, SAMPLE_ANGLES) == \
            {q for q in SAMPLE_ANGLES if 0 < q < 1}
        assert not s.contains_value(PHASE.zero_value())

    def test_full_circle_from_four_directions(self):
        terms = [angle(0), angle(Fraction(1, 2)), angle(1), angle(Fraction(3, 2))]
        s = PHASE.hypersum_values(terms)
        for q in SAMPLE_ANGLES:
            assert s.contains_value(angle(q))
        assert s.contains_value(PHASE.zero_value())

    def test_order_independence_on_grid(self):
        grid = [None, Fraction(0), Fraction(1, 2), Fraction(1)]
        for terms in itertools.product(grid, repeat=3):
            expected = PHASE.hypersum_values(terms)
            for perm in itertools.permutations(terms):
                assert PHASE.hypersum_values(perm) == expected


class TestInfiniteRoots:
    QUADRATIC = [Fraction(0), Fraction(0), Fraction(0)]  # 1 + T + T^2

    @pytest.mark.parametrize("q", [Fraction(3, 5), Fraction(1), Fraction(7, 5),
                                   Fraction(9, 8), Fraction(2, 3)])
    def test_roots_strictly_between_half_pi_and_three_half_pi(self, q):
        assert Fraction(1, 2) < q < Fraction(3, 2)
        p = poly(PHASE, self.QUADRATIC)
        assert is_root(p, PHASE.element(q))

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 2), Fraction(0),
                                   Fraction(1, 4), Fraction(7, 4)])
    def test_non_roots_outside_the_open_range(self, q):
        p = poly(PHASE, self.QUADRATIC)
        assert not is_root(p, PHASE.element(q))

    def test_evaluation_at_minus_one_gives_antipodal_triple(self):
        p = poly(PHASE, self.QUADRATIC)
        s = eval_hyperset(p, PHASE.element(1))
        assert s == FiniteSet(PHASE, frozenset({None, Fraction(0), Fraction(1)}))


class TestAxiomsSampled:
    def test_pass_with_note(self):
        report = check_axioms(PHASE)
        assert report.passed
        assert not report.exhaustive
        assert report.notes
