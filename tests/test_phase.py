"""Phase hyperfield arithmetic: arcs, antipodal triples, canonicalization,
and the infinite-root quadratic."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    FiniteSet,
    PHASE,
    PhaseUnion,
    check_axioms,
    eval_hyperset,
    is_root,
    poly,
)
from hyperpoly.instances import phase_canonical


def angle(q):
    return PHASE.element(Fraction(q))


def members(s, qs):
    return {q for q in qs if s.contains(angle(q))}


SAMPLE_ANGLES = [Fraction(n, 24) for n in range(48)]


class TestBinaryRules:
    def test_minor_arc(self):
        s = PHASE.hyperadd(angle(0), angle(Fraction(2, 3)))
        assert isinstance(s, PhaseUnion)
        assert s.contains(angle(Fraction(1, 3)))
        assert not s.contains(angle(0))
        assert not s.contains(angle(Fraction(2, 3)))
        assert not s.has_zero

    def test_minor_arc_goes_the_short_way(self):
        s = PHASE.hyperadd(angle(Fraction(1, 4)), angle(Fraction(7, 4)))
        assert s.contains(angle(0))
        assert not s.contains(angle(1))

    def test_antipodal_triple(self):
        s = PHASE.hyperadd(angle(Fraction(1, 2)), angle(Fraction(3, 2)))
        assert s == FiniteSet(PHASE, frozenset({None, Fraction(1, 2),
                                                Fraction(3, 2)}))

    def test_equal_arguments_collapse(self):
        s = PHASE.hyperadd(angle(Fraction(2, 3)), angle(Fraction(2, 3)))
        assert s == FiniteSet(PHASE, frozenset({Fraction(2, 3)}))

    def test_zero_is_neutral(self):
        s = PHASE.hyperadd(PHASE.zero(), angle(Fraction(5, 3)))
        assert s == FiniteSet(PHASE, frozenset({Fraction(5, 3)}))

    def test_commutative_on_grid(self):
        grid = PHASE.sample_values()
        for x, y in itertools.product(grid, repeat=2):
            a, b = PHASE.element(x), PHASE.element(y)
            assert PHASE.hyperadd(a, b) == PHASE.hyperadd(b, a)


class TestCanonicalization:
    def test_membership_is_preserved(self):
        rng = random.Random(5)
        pool = [Fraction(n, 12) for n in range(24)]
        for _ in range(120):
            arcs = []
            for _ in range(rng.randint(0, 3)):
                lo = rng.choice(pool)
                ln = rng.choice([Fraction(1, 12), Fraction(1, 4),
                                 Fraction(2, 3), Fraction(11, 12),
                                 Fraction(3, 2), Fraction(7, 4)])
                arcs.append((lo, lo + ln))
            points = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            if not arcs and not points:
                points = [Fraction(0)]
            zero = rng.random() < 0.3
            s = phase_canonical(PHASE, zero, arcs, points)

            def raw_member(q):
                if q in points:
                    return True
                return any(0 < (q - lo) % 2 < hi - lo for lo, hi in arcs)

            for q in SAMPLE_ANGLES:
                assert s.contains(angle(q)) == raw_member(q), (arcs, points, q)
            assert s.contains(PHASE.zero()) == zero

    def test_canonical_form_is_representation_independent(self):
        # the same set assembled from different raw pieces
        a = phase_canonical(PHASE, False,
                            [(Fraction(0), Fraction(1))], [Fraction(1)])
        half = Fraction(1, 2)
        b = phase_canonical(PHASE, False,
                            [(Fraction(0), half), (half, Fraction(1))],
                            [half, Fraction(1)])
        assert a == b

    def test_arcs_stay_short_and_disjoint(self):
        s = phase_canonical(PHASE, False, [(Fraction(0), Fraction(7, 4))], [])
        assert isinstance(s, PhaseUnion)
        for lo, hi in s.arcs:
            assert hi - lo < 1
        for (lo1, hi1), (lo2, hi2) in itertools.combinations(s.arcs, 2):
            assert hi1 <= lo2 or hi2 <= lo1

    def test_full_circle(self):
        s = phase_canonical(PHASE, True, [(Fraction(0), Fraction(2))], [])
        for q in SAMPLE_ANGLES:
            assert s.contains(angle(q))
        assert s.contains(PHASE.zero())

    @settings(deadline=None)
    @given(st.sampled_from(PHASE.sample_values()),
           st.sampled_from(PHASE.sample_values()),
           st.sampled_from(PHASE.sample_values()))
    def test_canonical_form_is_idempotent(self, x, y, c):
        s = PHASE.hyperadd_values(x, y)
        for union in (s, PHASE.add_set_value(s, c)):
            if isinstance(union, PhaseUnion):
                again = phase_canonical(PHASE, union.has_zero, union.arcs,
                                        union.points)
                assert again == union

    def test_pointless_input_collapses_to_finite_set(self):
        s = phase_canonical(PHASE, True, [], [Fraction(1, 3)])
        assert s == FiniteSet(PHASE, frozenset({None, Fraction(1, 3)}))


class TestHypersums:
    def test_three_quarters_of_the_circle(self):
        # 1 + i + (-1): every ray x - z + iy with x, y, z > 0
        terms = [angle(0), angle(Fraction(1, 2)), angle(1)]
        s = PHASE.hypersum(terms)
        assert members(s, SAMPLE_ANGLES) == \
            {q for q in SAMPLE_ANGLES if 0 < q < 1}
        assert not s.contains(PHASE.zero())

    def test_full_circle_from_four_directions(self):
        terms = [angle(0), angle(Fraction(1, 2)), angle(1), angle(Fraction(3, 2))]
        s = PHASE.hypersum(terms)
        for q in SAMPLE_ANGLES:
            assert s.contains(angle(q))
        assert s.contains(PHASE.zero())

    def test_order_independence_on_grid(self):
        grid = [None, Fraction(0), Fraction(1, 2), Fraction(1)]
        for terms in itertools.product(grid, repeat=3):
            elems = [PHASE.element(v) for v in terms]
            expected = PHASE.hypersum(elems)
            for perm in itertools.permutations(elems):
                assert PHASE.hypersum(list(perm)) == expected


class TestInfiniteRoots:
    QUADRATIC = [Fraction(0), Fraction(0), Fraction(0)]  # 1 + T + T^2

    @pytest.mark.parametrize("q", [Fraction(3, 5), Fraction(1), Fraction(7, 5),
                                   Fraction(9, 8), Fraction(2, 3)])
    def test_roots_strictly_between_half_pi_and_three_half_pi(self, q):
        assert Fraction(1, 2) < q < Fraction(3, 2)
        p = poly(PHASE, self.QUADRATIC)
        assert is_root(p, angle(q))

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 2), Fraction(0),
                                   Fraction(1, 4), Fraction(7, 4)])
    def test_non_roots_outside_the_open_range(self, q):
        p = poly(PHASE, self.QUADRATIC)
        assert not is_root(p, angle(q))

    def test_evaluation_at_minus_one_gives_antipodal_triple(self):
        p = poly(PHASE, self.QUADRATIC)
        s = eval_hyperset(p, angle(1))
        assert s == FiniteSet(PHASE, frozenset({None, Fraction(0), Fraction(1)}))


class TestAxiomsSampled:
    def test_pass_with_note(self):
        report = check_axioms(PHASE)
        assert report.passed
        assert not report.exhaustive
        assert report.notes
