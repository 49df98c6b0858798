"""Tropical witness chains against the three-range division they replace.

The reference is the construction ``mult_tropical`` used before it divided
by two synthetic divisions: a monic copy of p, its sorted root list, and a
quotient built in three ranges, the middle one from prefix sums of the
smallest roots.  ``ref_divide_root`` and ``ref_mult_tropical`` are kept
verbatim apart from their docstrings and the ``ref_`` names.  The property
asks ``multiplicity`` over ``T`` for the same multiplicity and the same
witness chain, at every finite root and at one non-root.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import INF, TROPICAL, multiplicity, poly, roots, witness_chain_valid
from hyperpoly.polynomial import MultReport, Poly, divides_with_quotient
from hyperpoly.tropical_newton import _prefix_sums, newton_polygon


def ref_divide_root(p_monic: Poly, a, sorted_roots) -> Poly:
    """One monic quotient of p by (T + a), given p's sorted root list."""
    c = p_monic.values()
    n = len(c) - 1
    k = sorted_roots.index(a) + 1
    m = sorted_roots.count(a)
    sums = _prefix_sums(sorted_roots)
    d = [None] * n
    d[n - 1] = Fraction(0)
    if k >= 2:
        for i in range(n - 2, n - k, -1):
            d[i] = min(c[i + 1], TROPICAL.mul_values(d[i + 1], a))
    if k + m <= n:
        d[0] = TROPICAL.mul_values(c[0], -a)
        for i in range(1, n - k - m + 1):
            d[i] = TROPICAL.mul_values(min(c[i], d[i - 1]), -a)
    for i in range(n - k - m + 1, n - k + 1):
        if 0 <= i < n:
            d[i] = sums[n - i - 1]
    return poly(TROPICAL, d)


def ref_mult_tropical(p: Poly, a) -> MultReport:
    """The polygon length at a.value, with the witness chain of the monic
    copy scaled back by p's leading coefficient."""
    F, s = p.field, a.value
    lead = p.values()[-1]
    mp = Poly(F, tuple(F.mul_values(v, -lead) for v in p.values()))
    found = newton_polygon(mp).roots()
    m = found.get(s, 0)
    chain = []
    cur, cur_scaled = mp, p
    cur_roots = [v for v, k in found.items() for _ in range(k)]
    for _ in range(m):
        q = ref_divide_root(cur, s, cur_roots)
        q_scaled = Poly(F, tuple(F.mul_values(v, lead) for v in q.values()))
        if not divides_with_quotient(cur_scaled, a, q_scaled):
            raise AssertionError("tropical witness quotient failed to divide")
        chain.append(q_scaled)
        cur_roots.remove(s)
        cur, cur_scaled = q, q_scaled
    return MultReport(a, m, "newton-polygon", tuple(chain))


SMALL = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
small = st.sampled_from(SMALL)
# one coefficient in four is inf
coefficients = st.sampled_from([INF] * (len(SMALL) // 3) + SMALL)


@st.composite
def polys_and_points(draw):
    """A polynomial of degree 1 to 12 whose coefficients below the top may be
    inf, so that runs of inf and coefficients above the hull both occur;
    with its finite roots and one value that is not a root."""
    n = draw(st.integers(1, 12))
    low = draw(st.lists(coefficients, min_size=n, max_size=n))
    p = poly(TROPICAL, low + [draw(small)])
    finite = [v for v in roots(p) if v is not INF]
    other = draw(small)
    while other in finite:
        other += 1
    return p, finite + [other]


def assert_same_witness(p, s):
    a = TROPICAL.element(s)
    got, ref = multiplicity(p, a), ref_mult_tropical(p, a)
    assert (got.multiplicity, got.witness) == (ref.multiplicity, ref.witness)
    return got


@settings(max_examples=300, deadline=None)
@given(polys_and_points())
def test_witness_chain_matches_the_three_range_division(case):
    p, points = case
    for s in points:
        assert_same_witness(p, s)


def test_middle_root_of_multiplicity_two_beside_an_off_hull_coefficient():
    # roots -1, 0, 0, 2, 2 with c_1 raised from 1 to 2, above the segment
    # of slope -2; the double root 0 is neither the smallest nor the largest
    p = poly(TROPICAL, [3, 2, -1, -1, -1, 0])
    assert roots(p) == {-1: 1, 0: 2, 2: 2}
    report = assert_same_witness(p, Fraction(0))
    assert report.multiplicity == 2
    # the off-hull c_1 = 2 carries into both quotients
    assert [q.values() for q in report.witness] == [
        (3, 2, -1, -1, 0),
        (3, 2, -1, 0),
    ]
    assert witness_chain_valid(p, report)
