"""Acceptance criteria.

Each test enforces one criterion at its stated tolerance (exact values,
wall-clock budgets where given) and prints a single pass/fail line; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines).
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from hyperpoly import (
    FiniteHyperfield,
    INF,
    KRASNER,
    PHASE,
    PrimeField,
    RationalField,
    SIGN,
    TROPICAL,
    WEAK_SIGN,
    build_quotient,
    check_axioms,
    expand_roots,
    functional_equiv,
    hyper_product,
    in_product,
    is_root,
    multiplicity,
    newton_polygon,
    padic_hom,
    poly,
    quotients,
    roots,
    sign_changes,
    sign_hom,
    substitute_neg,
    verify_pushforward,
)
from hyperpoly.pushforward import split_poly_corpus
from hyperpoly.tropical_newton import random_root_multisets

RATIONALS = RationalField()


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}".rstrip())


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_01_newton_polygon_worked_example():
    p = poly(TROPICAL, [2, 0, 1, INF, -1, 0])
    npg = newton_polygon(p)
    assert [(s.slope, s.length) for s in npg.segments] == \
        [(Fraction(2), 1), (Fraction(1, 3), 3), (Fraction(-1), 1)]
    expected = {Fraction(2): 1, Fraction(1, 3): 3, Fraction(-1): 1}
    assert npg.roots() == roots(p) == expected
    best = min(
        _timed(lambda: roots(poly(TROPICAL, [2, 0, 1, INF, -1, 0])) == expected)
        for _ in range(5))
    assert best < 0.001, f"{best * 1000:.3f} ms"
    report(1, "newton polygon worked example", f"({best * 1e6:.0f} us)")


def test_criterion_02_sign_rule_exhaustive_degree_six():
    t0 = time.perf_counter()
    one, minus = SIGN.element(1), SIGN.element(-1)
    checked = 0
    for vec in itertools.product((0, 1, -1), repeat=7):
        p = poly(SIGN, vec)
        if p.is_zero():
            continue
        assert multiplicity(p, one).multiplicity == sign_changes(p)
        assert multiplicity(p, minus).multiplicity == \
            sign_changes(substitute_neg(p))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 3 ** 7 - 1
    assert elapsed < 30, f"{elapsed:.1f} s"
    report(2, "sign-change rule exhaustive to degree 6",
           f"({checked} polynomials, {elapsed:.2f} s)")


def test_criterion_03_root_iff_quotient_exhaustive():
    t0 = time.perf_counter()
    fields = [SIGN, KRASNER, WEAK_SIGN, build_quotient(7, [2])]
    checked = 0
    for F in fields:
        values = F.carrier_values()
        for vec in itertools.product(values, repeat=5):
            p = poly(F, vec)
            if p.is_zero():
                continue
            for a in map(F.element, F.carrier_values()):
                assert is_root(p, a) == bool(quotients(p, a))
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"{elapsed:.1f} s"
    report(3, "root iff linear quotient, degree <= 4",
           f"({checked} cases over S, K, W, F7/squares, {elapsed:.2f} s)")


def test_criterion_04_sign_quotient_set_regression():
    p = poly(SIGN, [1, -1, -1, 1])
    qs = set(quotients(p, SIGN.element(1)))
    assert qs == {poly(SIGN, [-1, 0, 1]), poly(SIGN, [-1, 1, 1]),
                  poly(SIGN, [-1, -1, 1])}
    report(4, "quotient set of T^3-T^2-T+1 at 1 over S")


def test_criterion_05_weak_sign_double_roots():
    p = poly(WEAK_SIGN, [1, 1, 1])
    m1 = multiplicity(p, WEAK_SIGN.element(1)).multiplicity
    m2 = multiplicity(p, WEAK_SIGN.element(-1)).multiplicity
    m0 = multiplicity(p, WEAK_SIGN.element(0)).multiplicity
    assert m1 == 2 and m2 == 2
    assert m0 + m1 + m2 == 4 > p.degree
    report(5, "weak-sign quadratic with multiplicity sum 4 > degree 2")


def test_criterion_06_krasner_prefix_orders():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(1, 8)
        r = rng.randint(0, n - 1)
        coeffs = [0] * r + [1] + [rng.randint(0, 1) for _ in range(n - r - 1)] + [1]
        p = poly(KRASNER, coeffs[:n + 1])
        assert p.degree == n
        assert multiplicity(p, KRASNER.element(0)).multiplicity == r
        assert multiplicity(p, KRASNER.element(1)).multiplicity == n - r
    report(6, "Krasner multiplicities mult0=r, mult1=n-r (20 random)")


def test_criterion_07_association_order_changes_the_product():
    factors = [poly(SIGN, [-1, 1]), poly(SIGN, [-1, 1]), poly(SIGN, [1, 1])]
    grouped_first = hyper_product(factors, "((1 2) 3)")
    grouped_last = hyper_product(factors, "(1 (2 3))")
    all_pairs = {poly(SIGN, [1, b, a, 1])
                 for a in (0, 1, -1) for b in (0, 1, -1)}
    either_minus = {p for p in all_pairs
                    if p.coeffs[2].value == -1 or p.coeffs[1].value == -1}
    assert grouped_first == frozenset(all_pairs) and len(grouped_first) == 9
    assert grouped_last == frozenset(either_minus) and len(grouped_last) == 5
    report(7, "non-associative hyperproduct sets (9 vs 5, element-for-element)")


def test_criterion_08_phase_quadratic_root_arc():
    p = poly(PHASE, [0, 0, 0])  # 1 + T + T^2
    for q in (Fraction(3, 5), Fraction(1), Fraction(7, 5)):
        assert is_root(p, PHASE.element(q))
    for q in (Fraction(1, 2), Fraction(3, 2), Fraction(0)):
        assert not is_root(p, PHASE.element(q))
    report(8, "phase roots exactly on the open arc between i and -i")


def test_criterion_09_descartes_equality_on_split_corpus():
    t0 = time.perf_counter()
    count = 0
    for p, hint in split_poly_corpus(200, seed=0):
        rep = verify_pushforward(sign_hom(), p, hint)
        assert rep.ok
        assert rep.counts.get(1, 0) == rep.bounds.get(1, 0)
        assert rep.counts.get(-1, 0) == rep.bounds.get(-1, 0)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 200 and elapsed < 60, f"{elapsed:.1f} s"
    report(9, "Descartes equality on 200 split polynomials",
           f"({elapsed:.2f} s)")


def test_criterion_10_newton_rule_equality_on_split_corpus():
    t0 = time.perf_counter()
    pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
            Fraction(4), Fraction(-4), Fraction(1, 2), Fraction(-1, 2),
            Fraction(3), Fraction(-3))
    count = 0
    for p, hint in split_poly_corpus(100, seed=0, root_pool=pool):
        for prime in (2, 3):
            rep = verify_pushforward(padic_hom(prime), p, hint)
            assert rep.ok and sum(rep.bounds.values()) == p.degree
            for s in set(rep.bounds) | set(rep.counts):
                assert rep.counts.get(s, 0) == rep.bounds.get(s, 0)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 100 and elapsed < 60, f"{elapsed:.1f} s"
    report(10, "polygon-rule equality on 100 split polynomials, primes 2 and 3",
           f"({elapsed:.2f} s)")


def test_criterion_11_tropical_uniqueness_and_equivalence():
    for ms in random_root_multisets(500, seed=0):
        p = expand_roots(ms)
        assert roots(p) == Counter(ms)
        assert in_product(p, ms) and functional_equiv(p, ms)
    rng = random.Random(99)
    negatives = 0
    for ms in random_root_multisets(400, seed=1):
        p = expand_roots(ms)
        vals = list(p.values())
        i = rng.randrange(len(vals))
        vals[i] = Fraction(-5) if vals[i] is INF else vals[i] - 1
        variant = poly(TROPICAL, vals)
        if variant.is_zero() or variant.degree != len(ms) or \
                variant.coeffs[-1].value != 0:
            continue
        a, b = in_product(variant, ms), functional_equiv(variant, ms)
        assert a == b
        if not a:
            negatives += 1
        if negatives >= 200:
            break
    assert negatives >= 200
    report(11, "tropical factorization round-trip (500) and"
               " membership/function agreement (200 negatives)")


def test_criterion_12_axiom_suite():
    named = [RATIONALS, PrimeField(5), PrimeField(7), SIGN, KRASNER,
             WEAK_SIGN, PHASE, TROPICAL]
    for F in named:
        rep = check_axioms(F)
        assert rep.passed, (F.name, [c.axiom for c in rep.failing()])

    def primitive_root(p):
        for g in range(2, p):
            seen, x = {1}, g
            while x != 1:
                x = x * g % p
                seen.add(x)
            if len(seen) == p - 1:
                return g
        return 1

    quotient_count = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        g = primitive_root(p) if p > 2 else 1
        order = p - 1 if p > 2 else 1
        for d in [d for d in range(1, order + 1) if order % d == 0]:
            gen = pow(g, order // d, p) if p > 2 else 1
            q = build_quotient(p, [gen])
            rep = check_axioms(q)
            assert rep.passed, (q.name, [c.axiom for c in rep.failing()])
            quotient_count += 1

    bad_add = dict(SIGN.add_table)
    bad_add[(1, 1)] = frozenset({-1})
    bad = FiniteHyperfield("S-mutated", [0, 1, -1], 0, 1, SIGN.mul_table, bad_add)
    bad_report = check_axioms(bad)
    assert not bad_report.passed
    assert all(c.witness for c in bad_report.failing())
    report(12, "axiom suite",
           f"({len(named)} named instances, {quotient_count} quotients,"
           " mutated table rejected)")
