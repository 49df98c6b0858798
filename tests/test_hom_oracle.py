"""Oracle for the raw homomorphism checker.

``check_homomorphism`` runs on raw values through ``hom.fn``.  The reference
below is the element-level checker it replaced: every value goes through
``hom(x)``, the membership-checked boundary, and through the element-level
product, kept here as ``element_mul``; sums are read raw.  Both must report
the same violations in the same order, on random value tables between
finite instances and on twisted sign and p-adic maps over the sample grid
of Q.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpoly import (
    INF,
    RATIONALS,
    Element,
    check_homomorphism,
    padic_hom,
    parse_field,
    sign_hom,
)
from hyperpoly.pushforward import Homomorphism, table_hom

FINITE = [parse_field(spec) for spec in ("S", "K", "W", "quot:7:2", "quot:13:3")]
SIGN_TARGETS = FINITE[:3]
BASES = [sign_hom(), padic_hom(2), padic_hom(3)]


def element_mul(F, a, b):
    """The element-level product the checker used: both operands checked
    against ``F``, the product wrapped in ``F``."""
    F.check_member(a)
    F.check_member(b)
    return Element(F, F.mul_values(a.value, b.value))


def reference_violations(hom):
    """The element-level checker: f(0)=0, f(1)=1, f(ab)=f(a)f(b) and
    f(a+b) in f(a)+f(b), over the carrier or the sample grid."""
    src, tgt = hom.source, hom.target
    violations = []
    if hom(src.zero()) != tgt.zero():
        violations.append(("f(0)=0", src.zero(), None))
    if hom(src.one()) != tgt.one():
        violations.append(("f(1)=1", src.one(), None))
    elems = [Element(src, v) for v in src.sample_values()]
    for a, b in itertools.product(elems, repeat=2):
        fa, fb = hom(a), hom(b)
        if hom(element_mul(src, a, b)) != element_mul(tgt, fa, fb):
            violations.append(("f(ab)=f(a)f(b)", a, b))
        image = tgt.hyperadd_values(fa.value, fb.value)
        if not all(image.contains_value(hom(Element(src, s)).value)
                   for s in src.hyperadd_raw(a.value, b.value)):
            violations.append(("f(a+b) in f(a)+f(b)", a, b))
    return violations


@st.composite
def finite_table_homs(draw):
    source, target = draw(st.sampled_from(FINITE)), draw(st.sampled_from(FINITE))
    values = target.carrier_values()
    table = {x: draw(st.sampled_from(values)) for x in source.carrier_values()}
    if draw(st.booleans()):  # keep 0 and 1 fixed, as every homomorphism does
        table[source.zero_value()] = target.zero_value()
        table[source.one_value()] = target.one_value()
    return table_hom(source, target, table, rule="drawn")


@st.composite
def twisted_rational_homs(draw):
    """A base hom out of Q, alone or followed by a drawn map on its image."""
    base = draw(st.sampled_from(BASES))
    twist = draw(st.integers(0, 2))
    if twist == 0:
        return base
    if base.target in SIGN_TARGETS:
        target = draw(st.sampled_from(SIGN_TARGETS))
        table = {s: draw(st.sampled_from(target.carrier_values())) for s in (-1, 0, 1)}
        return Homomorphism(RATIONALS, target, lambda x: table[base.fn(x)], "sign-table")
    k = draw(st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(2)]))
    shift = draw(st.sampled_from([Fraction(0), Fraction(1)]))

    def scaled(x):
        v = base.fn(x)
        return INF if v is INF else k * v + shift

    return Homomorphism(RATIONALS, base.target, scaled, f"{base.rule}-scaled")


@settings(max_examples=150, deadline=None)
@given(st.one_of(finite_table_homs(), twisted_rational_homs()))
@example(BASES[0])
@example(BASES[1])
@example(BASES[2])
def test_raw_checker_matches_element_reference(hom):
    assert check_homomorphism(hom).violations == reference_violations(hom)
