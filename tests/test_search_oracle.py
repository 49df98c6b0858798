"""The multiplicity search against its references.

The element-level reference is the quotient enumeration and recursion that
the library used before its search moved to raw values: every step goes
through a product and a negation on checked elements, kept here as
``element_mul`` and ``element_neg``, and reads sums raw.  The raw
reference builds every chain down from c_n, filters at c_0 and sorts, as the
raw search did before it walked only the surviving chains; its recursion has
no early exit.  The properties ask the search for the same quotients in the
same order, the same multiplicity and the same witness chain.  One more
reference is the search as it was before its memo kept links instead of
whole witness chains.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    Element,
    KRASNER,
    SIGN,
    WEAK_SIGN,
    hyper_product,
    multiplicity,
    parse_field,
    poly,
    quotients,
    witness_chain_valid,
)
from hyperpoly.polynomial import _quotients_raw, _Transitions

# module-level references keep the parsed instances alive for the whole run
FIELDS = [SIGN, KRASNER, WEAK_SIGN, parse_field("Fp:5"), parse_field("quot:7:2")]


def poly_sort_key(p):
    """Canonical order: by length, then value by value in sort order."""
    return (len(p.values()), tuple(map(p.field.sort_key, p.values())))


def element_mul(F, a, b):
    """The element-level product: both operands checked against ``F``."""
    F.check_member(a)
    F.check_member(b)
    return Element(F, F.mul_values(a.value, b.value))


def element_neg(F, a):
    F.check_member(a)
    return Element(F, F.neg_value(a.value))


def reference_quotients(p, a) -> tuple:
    F = p.field
    n = p.degree
    if n == 0:
        return ()
    if a.value == F.zero_value():
        if p.coeffs[0].value == F.zero_value():
            return (poly(F, [c.value for c in p.coeffs[1:]]),)
        return ()
    chains = [(p.coeffs[n],)]  # chains grow as (d_{n-1}, ..., d_i)
    for i in range(n - 1, 0, -1):
        ci = p.coeffs[i]
        nxt = []
        for chain in chains:
            for d in F.hyperadd_raw(ci.value, element_mul(F, a, chain[-1]).value):
                nxt.append(chain + (Element(F, d),))
        chains = nxt
    c0 = p.coeffs[0]
    found = set()
    for chain in chains:
        if element_neg(F, element_mul(F, a, chain[-1])) == c0:
            found.add(poly(F, [d.value for d in reversed(chain)]))
    return tuple(sorted(found, key=poly_sort_key))


def reference_multiplicity(p, a) -> int:
    memo = {}

    def rec(q):
        key = q.values()
        if key not in memo:
            memo[key] = max((1 + rec(c) for c in reference_quotients(q, a)),
                            default=0)
        return memo[key]

    return rec(p)


def chain_then_filter_quotients(F, c: tuple, a) -> list:
    n = len(c) - 1
    if n == 0:
        return []
    zero = F.zero_value()
    if a == zero:
        return [c[1:]] if c[0] == zero else []
    chains = [(c[n],)]  # chains grow as (d_{n-1}, ..., d_i)
    for i in range(n - 1, 0, -1):
        ci = c[i]
        chains = [chain + (d,) for chain in chains
                  for d in F.hyperadd_values(ci, F.mul_values(a, chain[-1])).values]
    found = {chain[::-1] for chain in chains
             if F.neg_value(F.mul_values(a, chain[-1])) == c[0]}
    return sorted(found, key=lambda q: tuple(map(F.sort_key, q)))


def plain_multiplicity(F, c: tuple, a) -> tuple:
    """(multiplicity, witness): the first quotient attaining the maximum."""
    memo = {}

    def rec(q):
        if q not in memo:
            best = (0, ())
            for cand in chain_then_filter_quotients(F, q, a):
                m, chain = rec(cand)
                if m + 1 > best[0]:
                    best = (m + 1, (cand,) + chain)
            memo[q] = best
        return memo[q]

    return rec(c)


@st.composite
def polys(draw, field, max_degree=6):
    values = field.carrier_values()
    coeffs = draw(st.lists(st.sampled_from(values), min_size=0,
                           max_size=max_degree))
    nonzero = [v for v in values if v != field.zero_value()]
    return poly(field, coeffs + [draw(st.sampled_from(nonzero))])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_raw_search_matches_element_reference(field):
    @settings(max_examples=40, deadline=None)
    @given(polys(field))
    def check(p):
        for a in map(field.element, field.carrier_values()):
            assert quotients(p, a) == reference_quotients(p, a)
            report = multiplicity(p, a)
            assert report.multiplicity == reference_multiplicity(p, a)
            assert witness_chain_valid(p, report)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_multiplicity_is_invariant_under_scaling(field):
    """mult_a(p) = mult_1(p(aT)): T -> aT is an automorphism of F[T]."""
    one = field.one_value()
    units = [v for v in field.carrier_values() if v != field.zero_value()]

    @settings(max_examples=40, deadline=None)
    @given(polys(field), st.sampled_from(units))
    def check(p, a):
        power = one
        scaled = []
        for c in p.values():
            scaled.append(field.mul_values(c, power))
            power = field.mul_values(power, a)
        assert (multiplicity(p, field.element(a)).multiplicity
                == multiplicity(poly(field, scaled), field.one()).multiplicity)

    check()


WIDE_FIELDS = FIELDS + [parse_field("quot:13:3")]


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=lambda f: f.name)
def test_quotients_match_chain_then_filter(field):
    @settings(max_examples=60, deadline=None)
    @given(polys(field, max_degree=7))
    def check(p):
        c = p.values()
        for a in field.carrier_values():
            assert _quotients_raw(field, c, a, _Transitions()) == \
                chain_then_filter_quotients(field, c, a)

    check()


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=lambda f: f.name)
def test_one_table_serves_a_whole_search(field):
    """A search shares one table over many polynomials: layers, edges and
    starts met by one call must serve the next calls unchanged."""
    units = [v for v in field.carrier_values() if v != field.zero_value()]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(polys(field, max_degree=7), min_size=2, max_size=8),
           st.sampled_from(units))
    def check(ps, a):
        table = _Transitions()
        for p in ps:
            c = p.values()
            assert _quotients_raw(field, c, a, table) == \
                chain_then_filter_quotients(field, c, a)

    check()


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=lambda f: f.name)
def test_multiplicity_and_witness_match_plain_recursion(field):
    """The search strips T^ord and pads its witness again, so half the
    draws are T^k times a polynomial, k = 1 to 3, at degree 7 at most."""
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((0, 0, 0, 1, 2, 3)), st.data())
    def check(k, data):
        p = data.draw(polys(field, max_degree=7 - k))
        p = poly(field, [field.zero_value()] * k + list(p.values()))
        for a in map(field.element, field.carrier_values()):
            report = multiplicity(p, a)
            m, chain = plain_multiplicity(field, p.values(), a.value)
            assert report.multiplicity == m
            assert tuple(q.values() for q in report.witness) == chain

    check()


BOUND_FIELDS = WIDE_FIELDS + [parse_field(spec) for spec in
                              ("quot:11:10", "quot:13:12", "quot:19:7", "quot:31:5")]


@st.composite
def full_multiplicity_polys(draw, field, max_steps=5):
    """c T^j times up to ``max_steps`` factors T - a, each product drawn from
    the hyperproduct: deg - ord_0 = mult_a at the drawn unit a, with ord_0 = j."""
    units = [v for v in field.carrier_values() if v != field.zero_value()]
    t_minus_a = poly(field, [field.neg_value(draw(st.sampled_from(units))),
                             field.one_value()])
    p = poly(field, [field.zero_value()] * draw(st.integers(0, 2))
             + [draw(st.sampled_from(units))])
    for _ in range(draw(st.integers(1, max_steps))):
        p = draw(st.sampled_from(sorted(hyper_product([t_minus_a, p]),
                                        key=poly_sort_key)))
    return p


@pytest.mark.parametrize("field", BOUND_FIELDS, ids=lambda f: f.name)
def test_a_full_chain_fixes_the_lowest_coefficient(field):
    """If mult_a(q) = n = deg - ord_0 at a unit a, then q[ord] = (-a)^n q[deg]:
    each quotient on the chain keeps q[deg] and ord and has lowest
    coefficient -q[ord]/a.  The search stops at that bound, or at n - 1."""
    zero = field.zero_value()
    units = [v for v in field.carrier_values() if v != zero]

    def ord0(q):
        return next(i for i, v in enumerate(q) if v != zero)

    def check(p):
        c = p.values()
        n = len(c) - 1 - ord0(c)
        for a in units:
            m, chain = plain_multiplicity(field, c, a)
            assert m <= n
            report = multiplicity(p, field.element(a))
            assert (report.multiplicity, tuple(q.values() for q in report.witness)) \
                == (m, chain)
            if m < n:
                continue
            power = field.one_value()
            for _ in range(n):
                power = field.mul_values(power, field.neg_value(a))
            assert c[ord0(c)] == field.mul_values(power, c[-1])
            minus_inv_a = field.neg_value(field.inv_value(a))
            q = c
            for d in chain:
                assert (d[-1], ord0(d)) == (q[-1], ord0(q))
                assert d[ord0(d)] == field.mul_values(minus_inv_a, q[ord0(q)])
                q = d

    for strategy in (polys(field, max_degree=5), full_multiplicity_polys(field)):
        settings(max_examples=20, deadline=None)(given(strategy)(check))()


def chain_memo_search(F, c: tuple, av) -> tuple:
    """(multiplicity, witness, ord) of a nonzero ``av``, from the search whose
    memo held each state's whole witness chain; its ``rec`` is kept verbatim.
    The witness is that of ``c`` with ``T^ord`` stripped."""
    zero = F.zero_value()
    low = next(i for i, v in enumerate(c) if v != zero)
    c, power = c[low:], F.one_value()
    for _ in range(len(c) - 1):
        power = F.mul_values(power, F.neg_value(av))
    gap = 1 if c[0] == F.mul_values(power, c[-1]) else 2
    table, memo = _Transitions(), {}

    def rec(q: tuple):
        best = (0, ())
        for cand in _quotients_raw(F, q, av, table):
            m, chain = memo.get(cand) or rec(cand)  # entries are nonempty tuples
            if m + 1 > best[0]:
                best = (m + 1, (cand,) + chain)
                if best[0] == len(q) - gap:
                    break
        memo[q] = best
        return best

    try:
        m, chain = rec(c)
    finally:
        del rec  # rec refers to itself; the cycle would keep memo alive
    return m, chain, low


@pytest.mark.parametrize("field", [SIGN, parse_field("quot:13:3")], ids=lambda f: f.name)
def test_witness_links_match_the_chain_memo(field):
    """The memo's links, followed from the top, give the chain-memo witness,
    over S up to degree 10 and quot:13:3 up to degree 7, times T^0 to T^2."""
    units = [v for v in field.carrier_values() if v != field.zero_value()]
    most = 10 if field is SIGN else 7

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.data())
    def check(k, data):
        p = data.draw(polys(field, max_degree=most - k))
        c = (field.zero_value(),) * k + p.values()
        for a in units:
            report = multiplicity(poly(field, c), field.element(a))
            m, chain, low = chain_memo_search(field, c, a)
            assert report.multiplicity == m
            assert tuple(q.values() for q in report.witness) == \
                tuple(c[:low] + q for q in chain)

    check()

