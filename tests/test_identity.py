"""Instances are identified by object, not by name.

Each of the first three tests reproduces a defect of name-based identity:
a table instance named ``T`` taking the Newton-polygon path, ``SIGN``
accepting elements of another ``S``-named table, and a shared memo mixing
up two instances named ``S``.
"""

import gc
from fractions import Fraction

import pytest

from hyperpoly import (
    KRASNER,
    PHASE,
    RATIONALS,
    SIGN,
    TROPICAL,
    WEAK_SIGN,
    DomainError,
    FiniteHyperfield,
    NonEnumerableError,
    ParseError,
    TropicalHyperfield,
    build_quotient,
    multiplicity,
    newton_polygon,
    parse_field,
    poly,
    sign_hyperfield,
)
from hyperpoly.instances import _QUOTIENTS
from hyperpoly.polynomial import ASSOC_MAX_DEPTH, parse_assoc


def table_copy(name, source):
    return FiniteHyperfield(name, source.carrier_values(), source.zero_value(),
                            source.one_value(), source.mul_table,
                            source.add_table)


class TestNameCollisions:
    def test_table_instance_named_t_is_searched(self):
        fake = table_copy("T", KRASNER)
        report = multiplicity(poly(fake, [1, 1]), fake.element(1))
        assert report.multiplicity == 1
        assert report.method == "recursive"

    def test_same_named_table_elements_are_rejected(self):
        other = sign_hyperfield()
        assert other.name == SIGN.name
        with pytest.raises(DomainError):
            SIGN.hyperadd(SIGN.element(1), other.element(1))

    def test_shared_memo_keeps_instances_apart(self):
        weak_named_s = table_copy("S", WEAK_SIGN)
        memo = {}
        assert multiplicity(poly(SIGN, [1, 1, 1]), SIGN.element(1),
                            memo=memo).multiplicity == 0
        p = poly(weak_named_s, [1, 1, 1])
        assert multiplicity(p, weak_named_s.element(1),
                            memo=memo).multiplicity == 2


class TestInterning:
    def test_named_specs_are_the_module_singletons(self):
        for spec, field in [("Q", RATIONALS), ("S", SIGN), ("K", KRASNER),
                            ("W", WEAK_SIGN), ("P", PHASE), ("T", TROPICAL)]:
            assert parse_field(spec) is field

    def test_quotients_share_one_live_instance(self):
        q = build_quotient(7, [2], check=False)
        assert parse_field("quot:7:4") is q
        assert build_quotient(7, [2, 4], check=False) is q
        assert build_quotient(7, [3], check=False) is not q
        # elements of one parse are accepted by the next
        s = parse_field("quot:7:1,2,4").hyperadd(q.one(), q.one())
        assert s.contains(q.one())

    def test_dead_quotients_are_not_retained(self):
        name = build_quotient(13, [5], check=False).name
        gc.collect()
        assert all(v.name != name for v in _QUOTIENTS.values())


class TestOwnInstances:
    def test_own_tropical_instance_uses_the_polygon_rule(self):
        T = TropicalHyperfield()
        p = poly(T, [2, 1, 0])
        assert newton_polygon(p).nu(1) == 2
        report = multiplicity(p, T.element(Fraction(1)))
        assert report.method == "newton-polygon"
        assert report.multiplicity == 2
        assert all(q.field is T for q in report.witness)

    def test_phase_away_from_zero_is_not_enumerable(self):
        with pytest.raises(NonEnumerableError):
            multiplicity(poly(PHASE, [1, 0]), PHASE.element(1))


class TestAssociationDepth:
    def test_depth_at_the_limit_parses(self):
        depth = ASSOC_MAX_DEPTH
        tree = parse_assoc("(" * depth + "1" + " 2)" * depth)
        for _ in range(depth):
            tree = tree[0]
        assert tree == 1

    def test_deeper_trees_are_parse_errors(self):
        depth = 1100
        with pytest.raises(ParseError):
            parse_assoc("(" * depth + "1" + " 2)" * depth)
