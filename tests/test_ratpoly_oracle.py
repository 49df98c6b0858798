"""The exact root counter, the split-hint check and the min-plus comparison
against their rational references.

The references are the ``Fraction`` versions the library used before it
moved to primitive integer polynomials: Yun's algorithm on monic rational
polynomials with a rational gcd, the Sturm chain of negated rational
remainders, the hint expanded as lead * prod (T - r) and compared
coefficient by coefficient, and ``functional_equiv`` evaluating both
min-plus functions in rationals.  The properties ask the integer code for
the same answers.  A last test checks the counter against sympy at degrees
30 to 40, where the pseudo-remainder coefficients grow large.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperpoly import (
    INF,
    RATIONALS,
    TROPICAL,
    DomainError,
    count_roots_by_sign,
    expand_roots,
    functional_equiv,
    poly,
    ratpoly,
    sign_hom,
    verify_pushforward,
)

# -- rational references ------------------------------------------------------


def ref_normalize(coeffs) -> list:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_sub(p, q) -> list:
    n = max(len(p), len(q))
    return ref_normalize([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                          for i in range(n)])


def ref_mul(p, q) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ref_normalize(out)


def ref_divmod(p, q):
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and rem:
        k = len(rem) - len(q)
        c = rem[-1] / q[-1]
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = ref_normalize(rem)
    return ref_normalize(quo), rem


def ref_div_exact(p, q) -> list:
    quo, rem = ref_divmod(p, q)
    assert not rem
    return quo


def ref_derivative(p) -> list:
    return ref_normalize([i * c for i, c in enumerate(p)][1:])


def ref_monic(p) -> list:
    return [c / p[-1] for c in p] if p else []


def ref_gcd(p, q) -> list:
    a, b = ref_normalize(p), ref_normalize(q)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_expand_roots(roots, lead=Fraction(1)) -> list:
    p = [Fraction(lead)]
    for r in roots:
        p = ref_mul(p, [-Fraction(r), Fraction(1)])
    return p


def ref_yun(p) -> list:
    p = ref_monic(ref_normalize(p))
    if len(p) < 2:
        return []
    dp = ref_derivative(p)
    g = ref_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    out = []
    c = ref_div_exact(p, g)
    d = ref_sub(ref_div_exact(dp, g), ref_derivative(c))
    i = 1
    while len(c) > 1:
        f = ref_gcd(c, d)
        if len(f) > 1:
            out.append((f, i))
        c2 = ref_div_exact(c, f)
        d = ref_sub(ref_div_exact(d, f), ref_derivative(c2))
        c = c2
        i += 1
    return out


def ref_sturm(p) -> list:
    chain = [ref_normalize(p)]
    d = ref_derivative(p)
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            r = ref_divmod(chain[-2], chain[-1])[1]
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def ref_counts_by_sign(coeffs) -> dict:
    """Roots by sign with multiplicity: rational Yun, then one rational
    Sturm chain per factor read at -inf, 0-, 0+ and +inf."""
    def limit_signs(q):
        i, low = next((i, c) for i, c in enumerate(q) if c != 0)
        lo, hi = (1 if low > 0 else -1), (1 if q[-1] > 0 else -1)
        return (hi if len(q) % 2 else -hi, lo if i % 2 == 0 else -lo, lo, hi)

    def variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    counts = {-1: 0, 0: 0, 1: 0}
    for f, i in ref_yun(coeffs):
        vneg, v0m, v0p, vpos = (variations(col)
                                for col in zip(*map(limit_signs, ref_sturm(f))))
        counts[-1] += i * (vneg - v0m)
        counts[0] += i * int(f[0] == 0)
        counts[1] += i * (v0p - vpos)
    return counts


def ref_functional_equiv(p, roots) -> bool:
    """Both min-plus functions evaluated in rationals at the breakpoints,
    their midpoints and one unit beyond each end."""
    vals = sorted(roots, key=TROPICAL.sort_key)
    coeffs = p.values()
    prefix = next(i for i, v in enumerate(coeffs) if v is not INF)
    if prefix != sum(1 for v in vals if v is INF):
        return False
    finite = sorted({v for v in vals if v is not INF})
    if not finite:
        samples = [Fraction(0), Fraction(1)]
    else:
        samples = list(finite)
        samples += [(a + b) / 2 for a, b in zip(finite, finite[1:])]
        samples += [finite[0] - 1, finite[-1] + 1]

    def left(b):
        return min(v + i * b for i, v in enumerate(coeffs) if v is not INF)

    def right(b):
        return sum((b if (a is INF or b <= a) else a) for a in vals)

    return all(left(b) == right(b) for b in samples)


# -- root counts by sign --------------------------------------------------------

# half the coefficients zero: sparse factors such as T^4 + a*T + b give
# Sturm chains whose degrees drop by more than one
_rationals = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-6, max_value=6, max_denominator=12))


def _factor(max_size):
    return st.lists(_rationals, min_size=1, max_size=max_size).filter(lambda c: c[-1] != 0)


@settings(max_examples=100, deadline=None)
@given(f=_factor(7), g=_factor(4), h=_factor(3))
# T^4 + T + 1: the remainder of degree 1 has a negative lead, and the next
# pseudo-division takes three steps
@example(f=[Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(1)],
         g=[Fraction(1)], h=[Fraction(1)])
def test_counts_by_sign_match_the_rational_reference(f, g, h):
    # f * g^2 * h^3, degree at most 12: Yun has squares and cubes to find
    assume((len(f) - 1) + 2 * (len(g) - 1) + 3 * (len(h) - 1) <= 12)
    coeffs = ratpoly.mul(ratpoly.mul(ratpoly.mul(f, g), ratpoly.mul(g, h)),
                         ratpoly.mul(h, h))
    expected = ref_counts_by_sign(coeffs)
    assert count_roots_by_sign(poly(RATIONALS, coeffs)) == expected
    # the same factors: each rational one, cleared, is the integer one
    assert ratpoly.yun_squarefree(coeffs) == [
        (ratpoly.primitive(q), i) for q, i in ref_yun(coeffs)]


# -- the split hint -------------------------------------------------------------

_pool = [Fraction(x) for x in ("0", "1", "-1", "2", "-3", "1/2", "-2/3", "5/4")]
_leads = st.sampled_from([Fraction(x) for x in ("1", "-1", "3", "-1/2", "7/3", "-5/6")])


def _hint_accepted(p, hint) -> bool:
    try:
        verify_pushforward(sign_hom(), p, hint)
    except DomainError as err:
        assert "does not expand" in str(err)
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.sampled_from(_pool), min_size=1, max_size=6),
       lead=_leads, edit=st.integers(0, 3), data=st.data())
def test_integer_hint_check_accepts_what_the_rational_expansion_accepts(
        roots, lead, edit, data):
    coeffs = ref_expand_roots(roots, lead)
    hint = list(roots)
    if edit == 1:      # one root replaced
        hint[data.draw(st.integers(0, len(hint) - 1))] = data.draw(st.sampled_from(_pool))
    elif edit == 2:    # one root more or one fewer
        hint = hint[1:] if data.draw(st.booleans()) else hint + [Fraction(1, 2)]
    elif edit == 3:    # one coefficient moved
        j = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[j] += data.draw(st.sampled_from([Fraction(1), Fraction(-1, 3)]))
        assume(coeffs[-1] != 0)
    p = poly(RATIONALS, coeffs)
    expected = ref_expand_roots(hint, coeffs[-1]) == coeffs
    assert _hint_accepted(p, hint) == expected


# -- min-plus functions ---------------------------------------------------------

_tropical_values = st.one_of(st.builds(Fraction, st.integers(-14, 14), st.integers(2, 7)),
                            st.just(INF))


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(_tropical_values, min_size=1, max_size=7), data=st.data())
def test_functional_equiv_matches_the_rational_reference(roots, data):
    vals = list(expand_roots(roots).values())
    if data.draw(st.booleans()) and len(vals) > 1:
        j = data.draw(st.integers(0, len(vals) - 2))
        delta = data.draw(_tropical_values)
        vals[j] = delta if vals[j] is INF or delta is INF else vals[j] + delta
    p = poly(TROPICAL, vals)
    assert functional_equiv(p, roots) == ref_functional_equiv(p, roots)


# -- scale ----------------------------------------------------------------------

X = sympy.Symbol("x")


def test_counts_match_sympy_at_degree_30_to_40():
    rng = random.Random(29)
    pool = [Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)]
    for _ in range(6):
        roots = [rng.choice(pool) for _ in range(rng.randint(28, 38))]
        c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        # (T^2 + c) adds two complex roots; the real ones are all rational
        coeffs = ratpoly.mul(ref_expand_roots(roots, Fraction(rng.choice((-2, 1, 3)))),
                             [c, 0, 1])
        expected = {-1: 0, 0: 0, 1: 0}
        for r in sympy.real_roots(sympy.Poly(
                [sympy.Rational(x.numerator, x.denominator) for x in reversed(coeffs)], X)):
            expected[int(sympy.sign(r))] += 1
        assert 30 <= len(coeffs) - 1 <= 40
        assert count_roots_by_sign(poly(RATIONALS, coeffs)) == expected

