"""Newton polygons, tropical factorization, functional equivalence, and the
polygon rule against p-adic valuations under the pushforward harness."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    INF,
    DomainError,
    RATIONALS,
    TROPICAL,
    eval_function,
    expand_roots,
    functional_equiv,
    in_product,
    multiplicity,
    newton_polygon,
    padic_hom,
    padic_valuation,
    poly,
    roots,
    verify_pushforward,
    witness_chain_valid,
)
from hyperpoly.pushforward import DEFAULT_PADIC_ROOT_POOL, split_poly_corpus
from hyperpoly.tropical_newton import random_root_multisets


EXAMPLE = [2, 0, 1, INF, -1, 0]  # degree five, one gap


def root_list(p):
    """The roots of p, each repeated by its multiplicity."""
    return list(Counter(roots(p)).elements())


def mult(p, s):
    return multiplicity(p, TROPICAL.element(s))


def brute_symmetric(values, i):
    """Oracle: the i-th elementary symmetric value by subset enumeration."""
    best = None
    for combo in itertools.combinations(values, i):
        total = Fraction(0)
        for v in combo:
            total = TROPICAL.mul_values(total, v)
        if best is None or (total is not INF and (best is INF or total < best)):
            best = total
    return best


class TestNewtonPolygon:
    def test_worked_example(self):
        npg = newton_polygon(poly(TROPICAL, EXAMPLE))
        assert npg.vertices == ((0, Fraction(2)), (1, Fraction(0)),
                                (4, Fraction(-1)), (5, Fraction(0)))
        assert [(s.slope, s.length) for s in npg.segments] == \
            [(Fraction(2), 1), (Fraction(1, 3), 3), (Fraction(-1), 1)]
        assert npg.inf_prefix == 0

    def test_two_equal_coefficients(self):
        npg = newton_polygon(poly(TROPICAL, [0, 0]))
        assert [(s.slope, s.length) for s in npg.segments] == [(Fraction(0), 1)]

    def test_strictly_convex_hull_keeps_all_corners(self):
        npg = newton_polygon(poly(TROPICAL, [3, 1, 0, 0]))
        assert [(s.slope, s.length) for s in npg.segments] == \
            [(Fraction(2), 1), (Fraction(1), 1), (Fraction(0), 1)]

    def test_collinear_points_merge_into_one_segment(self):
        npg = newton_polygon(poly(TROPICAL, [2, 1, 0]))
        assert [(s.slope, s.length) for s in npg.segments] == [(Fraction(1), 2)]

    def test_inf_prefix_is_factored_off(self):
        npg = newton_polygon(poly(TROPICAL, [INF, INF, 1, 0]))
        assert npg.inf_prefix == 2
        assert [(s.slope, s.length) for s in npg.segments] == [(Fraction(1), 1)]

    def test_all_inf_rejected(self):
        with pytest.raises(DomainError):
            newton_polygon(poly(TROPICAL, [INF, INF]))

    def test_segment_lengths_cover_the_finite_range(self):
        for ms in random_root_multisets(80, seed=21):
            p = expand_roots(ms)
            npg = newton_polygon(p)
            assert sum(s.length for s in npg.segments) == \
                p.degree - npg.inf_prefix

    def test_roots_ascend_with_inf_last(self):
        npg = newton_polygon(poly(TROPICAL, [INF, 2, 0, 1, INF, -1, 0]))
        assert list(npg.roots().items()) == \
            [(Fraction(-1), 1), (Fraction(1, 3), 3), (Fraction(2), 1), (INF, 1)]

    def test_plot_data_format(self):
        data = newton_polygon(poly(TROPICAL, EXAMPLE)).plot_data()
        blocks = data.strip().split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].splitlines() == ["0 2", "1 0"]


class TestNu:
    """The segment length of slope -s, read off the ``roots(p)`` dict."""

    def test_worked_example(self):
        assert roots(poly(TROPICAL, EXAMPLE)) == \
            {Fraction(2): 1, Fraction(1, 3): 3, Fraction(-1): 1}

    def test_inf_counts_the_prefix(self):
        assert roots(poly(TROPICAL, [INF, INF, 0])) == {INF: 2}

    def test_total_mass_is_the_degree(self):
        for ms in random_root_multisets(60, seed=4):
            p = expand_roots(ms)
            assert sum(roots(p).values()) == p.degree


class TestTropicalRoots:
    def test_worked_example(self):
        assert roots(poly(TROPICAL, EXAMPLE)) == \
            Counter([2, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), -1])

    def test_product_of_two_linear_factors(self):
        assert roots(poly(TROPICAL, [11, 4, 0])) == Counter([4, 7])

    def test_pure_power_of_t(self):
        assert roots(poly(TROPICAL, [INF, INF, 0])) == Counter([INF, INF])

    def test_expansion_uses_sorted_prefix_sums(self):
        rng = random.Random(17)
        pool = [Fraction(v) for v in (-2, -1, 0, 1, 2, 5)] \
            + [Fraction(1, 3), INF]
        for _ in range(50):
            vals = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            p = expand_roots(vals)
            n = len(vals)
            coeffs = p.values()
            for i in range(1, n + 1):
                assert coeffs[n - i] == brute_symmetric(vals, i)

    def test_roundtrip_through_expansion(self):
        for ms in random_root_multisets(150, seed=2):
            assert roots(expand_roots(ms)) == Counter(ms)


class TestEvalFunction:
    def test_worked_example(self):
        p = poly(TROPICAL, EXAMPLE)
        assert eval_function(p, 0) == -1

    def test_linear_pair(self):
        assert eval_function(poly(TROPICAL, [11, 4, 0]), 5) == 9

    def test_constant(self):
        p = poly(TROPICAL, [Fraction(7, 2)])
        for b in (-3, 0, 10):
            assert eval_function(p, b) == Fraction(7, 2)

    def test_infinite_argument_rejected(self):
        with pytest.raises(DomainError):
            eval_function(poly(TROPICAL, [0, 0]), INF)


class TestInProduct:
    def test_worked_examples(self):
        p = poly(TROPICAL, EXAMPLE)
        assert in_product(p, root_list(p))
        assert in_product(poly(TROPICAL, [11, 4, 0]), [4, 7])
        assert not in_product(poly(TROPICAL, [11, 4, 0]), [4, 8])

    def test_preconditions(self):
        with pytest.raises(DomainError):
            in_product(poly(TROPICAL, [11, 4, 1]), [4, 7])  # not monic
        with pytest.raises(DomainError):
            in_product(poly(TROPICAL, [11, 4, 0]), [4, 7, 9])  # size mismatch

    def test_raising_unforced_coefficients_preserves_membership(self):
        # roots (1,1,3): the size-1 minimum ties, so c2 may rise freely.
        base = expand_roots([1, 1, 3])
        assert base.values() == (Fraction(5), Fraction(2), Fraction(1), Fraction(0))
        for raised in (Fraction(3, 2), Fraction(2), INF):
            variant = poly(TROPICAL, [5, 2, raised, 0])
            assert in_product(variant, [1, 1, 3])
            assert functional_equiv(variant, [1, 1, 3])

    def test_lowering_any_coefficient_breaks_membership(self):
        vals = [Fraction(5), Fraction(2), Fraction(1), Fraction(0)]
        for i in range(3):
            lowered = list(vals)
            lowered[i] -= 1
            variant = poly(TROPICAL, lowered)
            assert not in_product(variant, [1, 1, 3])
            assert not functional_equiv(variant, [1, 1, 3])

    def test_raising_forced_coefficients_breaks_membership(self):
        # roots (4,7): both coefficients are forced equalities.
        for vals in ([12, 4, 0], [11, 5, 0], [INF, 4, 0]):
            variant = poly(TROPICAL, vals)
            assert not in_product(variant, [4, 7])
            assert not functional_equiv(variant, [4, 7])


class TestFunctionalEquivalence:
    def test_worked_examples(self):
        p = poly(TROPICAL, EXAMPLE)
        assert functional_equiv(p, root_list(p))
        assert functional_equiv(poly(TROPICAL, [11, 4, 0]), [4, 7])
        assert not functional_equiv(poly(TROPICAL, [11, 3, 0]), [4, 7])

    def test_agreement_with_in_product_on_corpus(self):
        for ms in random_root_multisets(200, seed=3):
            p = expand_roots(ms)
            assert roots(p) == Counter(ms)
            assert in_product(p, ms) and functional_equiv(p, ms)

    def test_agreement_on_perturbed_negatives(self):
        rng = random.Random(23)
        disagreements = 0
        for ms in random_root_multisets(200, seed=8):
            p = expand_roots(ms)
            vals = list(p.values())
            i = rng.randrange(len(vals))
            delta = rng.choice([Fraction(-2), Fraction(-1), Fraction(1),
                                Fraction(3, 2)])
            vals[i] = delta if vals[i] is INF else vals[i] + delta
            variant = poly(TROPICAL, vals)
            if variant.is_zero() or variant.degree != len(ms) or \
                    variant.coeffs[-1].value != 0:
                continue
            a = in_product(variant, ms)
            b = functional_equiv(variant, ms)
            assert a == b, (ms, vals)
            disagreements += 0 if a else 1
        assert disagreements > 50  # most perturbations break membership

    def test_inf_tail_mismatch_detected(self):
        # T^2 against one finite and one infinite root
        p = poly(TROPICAL, [INF, INF, 0])
        assert not functional_equiv(p, [Fraction(3), INF])
        assert not in_product(p, [Fraction(3), INF])


class TestMultTropical:
    def test_worked_example_with_chain(self):
        p = poly(TROPICAL, EXAMPLE)
        rep = mult(p, Fraction(1, 3))
        assert rep.multiplicity == 3
        assert rep.method == "newton-polygon"
        assert len(rep.witness) == 3
        assert witness_chain_valid(p, rep)
        assert mult(p, 5).multiplicity == 0
        assert mult(p, 2).multiplicity == 1

    def test_inf_root_order(self):
        # the zero element never reaches the polygon: it is the order at zero
        p = poly(TROPICAL, [INF, INF, 0])
        generic = mult(p, INF)
        assert generic.multiplicity == 2
        assert generic.method == "zero-order"
        assert witness_chain_valid(p, generic)

    def test_non_canonical_coefficients(self):
        # A raised unforced coefficient: the witness must follow the actual
        # coefficients, not the canonical expansion.
        p = poly(TROPICAL, [5, 2, 2, 0])
        rep = mult(p, 3)
        assert rep.multiplicity == 1
        assert rep.witness[0].values() == (Fraction(2), Fraction(2), Fraction(0))
        assert witness_chain_valid(p, rep)
        rep2 = mult(p, 1)
        assert rep2.multiplicity == 2
        assert witness_chain_valid(p, rep2)

    def test_scaling_invariance(self):
        for ms in random_root_multisets(40, seed=31):
            p = expand_roots(ms)
            scaled = poly(TROPICAL, [TROPICAL.mul_values(v, Fraction(5, 2))
                                     for v in p.values()])
            for s in set(ms):
                assert mult(p, s).multiplicity == mult(scaled, s).multiplicity
            rep = mult(scaled, ms[0])
            assert witness_chain_valid(scaled, rep)

    def test_chains_replay_on_random_corpus(self):
        for ms in random_root_multisets(60, seed=12):
            p = expand_roots(ms)
            for s in set(ms):
                rep = mult(p, s)
                assert rep.multiplicity == ms.count(s)
                assert witness_chain_valid(p, rep)


# arbitrary coefficient vectors, not only expansions of root lists: raised
# and infinite coefficients, inf prefixes and non-monic leads all occur
_tropical_values = st.one_of(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
                             st.just(INF))
_tropical_coeffs = st.lists(_tropical_values, min_size=1, max_size=7).filter(
    lambda c: c[-1] is not INF)


@settings(max_examples=150, deadline=None)
@given(coeffs=_tropical_coeffs)
def test_roots_and_multiplicity_agree_on_any_polynomial(coeffs):
    p = poly(TROPICAL, coeffs)
    found = roots(p)
    assert sum(found.values()) == p.degree
    for s, m in found.items():
        rep = mult(p, s)
        assert rep.multiplicity == m
        assert witness_chain_valid(p, rep)
    finite = sorted(s for s in found if s is not INF)
    for a, b in zip(finite, finite[1:]):
        assert mult(p, (a + b) / 2).multiplicity == 0
    if finite:
        assert mult(p, finite[0] - 1).multiplicity == 0
        assert mult(p, finite[-1] + 1).multiplicity == 0


def newton_rule_verify(p, prime, split_hint=None):
    return verify_pushforward(padic_hom(prime), p, split_hint)


def slope_table(report) -> dict:
    """slope -> (segment length, hint roots of that valuation or None)."""
    counts = report.counts
    return {str(s): (report.bounds.get(s, 0), None if counts is None else counts.get(s, 0))
            for s in set(report.bounds) | set(counts or ())}


class TestNewtonRule:
    def test_split_cubic_prime_two(self):
        p = poly(RATIONALS, [-8, 14, -7, 1])  # (T-1)(T-2)(T-4)
        report = newton_rule_verify(p, 2, split_hint=[1, 2, 4])
        assert report.ok and report.split_certified
        table = slope_table(report)
        assert table == {"2": (1, 1), "1": (1, 1), "0": (1, 1)}

    def test_irrational_roots_inequality_branch(self):
        report = newton_rule_verify(poly(RATIONALS, [-2, 0, 1]), 2)
        assert report.ok and not report.split_certified
        assert [(str(s), nu) for s, nu in report.bounds.items()] == [("1/2", 2)]

    def test_trivial_linear(self):
        report = newton_rule_verify(poly(RATIONALS, [1, 1]), 3, split_hint=[-1])
        assert report.ok
        assert [(s, nu, cnt) for s, (nu, cnt) in slope_table(report).items()] == \
            [("0", 1, 1)]

    def test_zero_roots_live_on_the_inf_prefix(self):
        # T^2 (T - 2), prime 2
        p = poly(RATIONALS, [0, 0, -2, 1])
        report = newton_rule_verify(p, 2, split_hint=[0, 0, 2])
        assert report.ok
        table = slope_table(report)
        assert table["inf"] == (2, 2)
        assert table["1"] == (1, 1)

    def test_bad_hint_rejected(self):
        with pytest.raises(DomainError):
            newton_rule_verify(poly(RATIONALS, [-8, 14, -7, 1]), 2,
                               split_hint=[1, 2, 5])

    def test_batch_equality(self):
        reports = [newton_rule_verify(q, prime, split_hint=roots)
                   for q, roots in split_poly_corpus(30, seed=1,
                                                     root_pool=DEFAULT_PADIC_ROOT_POOL)
                   for prime in (2, 3)]
        assert len(reports) == 60  # two primes per polynomial
        assert all(r.ok for r in reports)

    def test_valuations_match_padic_map(self):
        p = poly(RATIONALS, [-8, 14, -7, 1])
        report = newton_rule_verify(p, 2)
        assert report.image.values() == tuple(
            padic_valuation(c, 2).value for c in (-8, 14, -7, 1))
