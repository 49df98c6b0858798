"""The quadratic axiom checker against a cubic reference.

The reference runs the generators the checker used before its finite checks
were reduced: every triple for associativity, reversibility and
distributivity.  It adds the group laws of the units, checked directly, and
checks that zero absorbs on both sides, as the checker now does.  A check
the checker passes must pass in the reference, a check it fails must fail
there too, and whole reports pass or fail together.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    DomainError,
    FiniteHyperfield,
    build_quotient,
    check_axioms,
    parse_field,
)


def cubic_axioms(F) -> dict:
    """Axiom name -> passed, by brute force over every pair and triple."""
    vals = F.carrier_values()
    zero, one = F.zero_value(), F.one_value()
    units = [v for v in vals if v != zero]
    add, mul = F.hyperadd_values, F.mul_values

    def neg(x):
        try:
            return F.neg_value(x)
        except DomainError:
            return None

    def union_add(s, c):
        return frozenset().union(*(add(x, c).values for x in s.values))

    def group():
        return (all(mul(x, y) != zero and mul(x, y) == mul(y, x)
                    for x, y in itertools.product(units, repeat=2))
                and all(mul(one, x) == x and one in {mul(x, y) for y in units}
                        for x in units)
                and all(mul(mul(x, y), z) == mul(x, mul(y, z))
                        for x, y, z in itertools.product(units, repeat=3)))

    def inverse():
        return all(neg(a) is not None and zero in add(a, neg(a)).values
                   and sum(zero in add(a, x).values for x in vals) == 1
                   for a in vals)

    def reversible():
        if any(neg(a) is None for a in vals):
            return False
        return all((a in add(b, c).values) == (neg(b) in add(neg(a), c).values)
                   for a, b, c in itertools.product(vals, repeat=3))

    def distributive():
        return all((frozenset({zero}) if a == zero
                    else frozenset(mul(a, x) for x in add(b, c).values))
                   == add(mul(a, b), mul(a, c)).values
                   for a, b, c in itertools.product(vals, repeat=3))

    return {
        "multiplicative group": group(),
        "nonempty": all(add(a, b).values
                        for a, b in itertools.product(vals, repeat=2)),
        "commutativity": all(add(a, b) == add(b, a)
                             for a, b in itertools.product(vals, repeat=2)),
        "associativity": all(union_add(add(b, c), a) == union_add(add(a, b), c)
                             for a, b, c in itertools.product(vals, repeat=3)),
        "neutral element": all(add(zero, a).values == {a} for a in vals),
        "unique inverse": inverse(),
        "reversibility": reversible(),
        "zero absorbs": all(mul(zero, a) == zero == mul(a, zero) for a in vals),
        "distributivity": distributive(),
    }


def assert_agrees(F):
    report = check_axioms(F)
    reference = cubic_axioms(F)
    for c in report.checks:
        if not c.skipped:
            assert c.passed == reference[c.axiom], (c.axiom, c.witness)
    assert report.passed == all(reference.values())
    return report


SPECS = ["quot:5:1", "quot:7:1", "quot:7:2", "quot:11:1", "quot:13:3",
         "quot:13:4", "quot:13:12"]
# module-level references keep the parsed instances alive for the whole run
BASES = {spec: parse_field(spec) for spec in SPECS}


@pytest.mark.parametrize("spec", SPECS)
def test_small_quotients_agree(spec):
    assert assert_agrees(BASES[spec]).passed


@st.composite
def perturbed_tables(draw):
    """One entry of a small quotient's tables changed, with its mirror entry
    or not.  A changed sum may be changed along its whole orbit under
    scaling by units, which keeps distributivity, so that the reduced
    checks run with their premises intact."""
    base = BASES[draw(st.sampled_from(SPECS))]
    vals = base.carrier_values()
    add, mul = dict(base.add_table), dict(base.mul_table)
    x, y = draw(st.sampled_from(vals)), draw(st.sampled_from(vals))
    mirror = draw(st.booleans())
    if draw(st.booleans()):
        mul[(x, y)] = draw(st.sampled_from(vals))
        if mirror:
            mul[(y, x)] = mul[(x, y)]
        return FiniteHyperfield("perturbed", vals, 0, 1, mul, add)
    new = draw(st.frozensets(st.sampled_from(vals), max_size=3))
    scalings = [u for u in vals if u != 0] if draw(st.booleans()) else [1]
    for u in scalings:
        ux, uy = base.mul_values(u, x), base.mul_values(u, y)
        add[(ux, uy)] = frozenset(base.mul_values(u, s) for s in new)
        if mirror:
            add[(uy, ux)] = add[(ux, uy)]
    return FiniteHyperfield("perturbed", vals, 0, 1, mul, add)


@settings(max_examples=150, deadline=None)
@given(perturbed_tables())
def test_one_perturbed_entry_fails_in_both_or_neither(F):
    assert_agrees(F)


def klein_krasner():
    """Units {1, 2, 3, 4} forming the Klein four-group; x + x is everything
    and x + y, for distinct units, every unit."""
    units = [1, 2, 3, 4]
    mul = {(0, v): 0 for v in range(5)}
    for x, y in itertools.product(units, repeat=2):
        mul[(x, y)] = 1 + ((x - 1) ^ (y - 1))
    add = {(0, v): {v} for v in range(5)}
    for x, y in itertools.product(units, repeat=2):
        add[(x, y)] = set(range(5)) if x == y else set(units)
    return FiniteHyperfield("klein", range(5), 0, 1, mul, add)


def test_non_cyclic_unit_group_passes_with_a_note():
    report = assert_agrees(klein_krasner())
    assert report.passed
    assert report.notes == ["the unit group is not cyclic"]


def seven_element_loop():
    """x + y as in klein_krasner, over a commutative loop of order 6 that is
    not associative: 4 has the powers 4, 5, 2, 3, 6, 1, so 5*5 should be
    4^4 = 3, but the table says 4."""
    products = {(2, 2): 1, (2, 3): 4, (2, 4): 3, (2, 5): 6, (2, 6): 5,
                (3, 3): 5, (3, 4): 6, (3, 5): 1, (3, 6): 2, (4, 4): 5,
                (4, 5): 2, (4, 6): 1, (5, 5): 4, (5, 6): 3, (6, 6): 4}
    units = range(1, 7)
    mul = {(0, v): 0 for v in range(7)} | {(1, v): v for v in units} | products
    add = {(0, v): {v} for v in range(7)}
    for x, y in itertools.product(units, repeat=2):
        add[(x, y)] = set(range(7)) if x == y else set(units)
    return FiniteHyperfield("loop", range(7), 0, 1, mul, add)


def test_non_associative_loop_fails_the_group_check():
    report = assert_agrees(seven_element_loop())
    failed = {c.axiom for c in report.failing()}
    assert failed == {"multiplicative group"}
    skipped = {c.axiom for c in report.checks if c.skipped}
    assert skipped == {"associativity", "reversibility", "distributivity"}
    assert "skipped" in "\n".join(report.lines())


def test_quadratic_table_lookups():
    F = build_quotient(43, [1])
    n = len(F.carrier_values())
    calls = []
    real = F.hyperadd_values

    def counted(x, y):
        calls.append(None)
        return real(x, y)

    F.hyperadd_values = counted
    try:
        assert check_axioms(F).passed
    finally:
        del F.hyperadd_values
    assert len(calls) <= 20 * n * n
