"""Instances are identified by object, not by name.

Each of the first three tests reproduces a defect of name-based identity:
a table instance named ``T`` taking the Newton-polygon path, ``SIGN``
accepting elements of another ``S``-named table, and a shared memo mixing
up two instances named ``S``.
"""

import gc
import weakref
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
    QuotientHyperfield,
    TropicalHyperfield,
    build_quotient,
    hyper_product,
    multiplicity,
    newton_polygon,
    parse_field,
    poly,
    quotient_projection,
    roots,
    sign_hyperfield,
)
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
            SIGN.mul(SIGN.element(1), other.element(1))

    def test_shared_memo_keeps_instances_apart(self):
        weak_named_s = table_copy("S", WEAK_SIGN)
        assert multiplicity(poly(SIGN, [1, 1, 1]), SIGN.element(1)).multiplicity == 0
        p = poly(weak_named_s, [1, 1, 1])
        assert multiplicity(p, weak_named_s.element(1)).multiplicity == 2


class TestInterning:
    def test_named_specs_are_the_module_singletons(self):
        for spec, field in [("Q", RATIONALS), ("S", SIGN), ("K", KRASNER),
                            ("W", WEAK_SIGN), ("P", PHASE), ("T", TROPICAL)]:
            assert parse_field(spec) is field

    def test_quotients_share_one_live_instance(self):
        q = build_quotient(7, [2])
        assert parse_field("quot:7:4") is q
        assert build_quotient(7, [2, 4]) is q
        assert build_quotient(7, [3]) is not q
        # elements of one parse are accepted by the next
        assert parse_field("quot:7:1,2,4").mul(q.one(), q.one()) == q.one()

    def test_live_quotient_is_returned_without_a_build(self, monkeypatch):
        q = build_quotient(11, [3])

        def no_build(self, p, generators):
            raise AssertionError("a second table was built")

        monkeypatch.setattr(QuotientHyperfield, "__init__", no_build)
        assert parse_field("quot:11:3") is q
        assert parse_field("quot:11:4,5") is q
        with pytest.raises(AssertionError):
            QuotientHyperfield(11, [3])

    def test_prime_fields_share_one_live_instance(self):
        F = parse_field("Fp:7")
        assert parse_field("Fp:7") is F
        assert parse_field("Fp:5") is not F
        assert parse_field("Fp:7").hyperadd_raw(3, 5) == {1}
        assert quotient_projection(build_quotient(7, [2])).source is F

    @staticmethod
    def assert_freed_after_use(use):
        # built directly, not interned, so no other test can hold it; with
        # gc off, only a reference cycle could keep it alive past ``del``
        F = QuotientHyperfield(13, [5])
        use(F)
        ref = weakref.ref(F)
        gc.disable()
        try:
            del F
            assert ref() is None
        finally:
            gc.enable()

    def test_dead_quotients_are_not_retained(self):
        self.assert_freed_after_use(lambda F: F.hyperadd_values(F.one_value(), F.one_value()))

    def test_hyper_product_keeps_no_instance_alive(self):
        self.assert_freed_after_use(
            lambda F: hyper_product([poly(F, [1, 1]), poly(F, [2, 1]), poly(F, [1, 1])]))


class TestOwnInstances:
    def test_own_tropical_instance_uses_the_polygon_rule(self):
        T = TropicalHyperfield()
        p = poly(T, [2, 1, 0])
        assert newton_polygon(p).roots() == roots(p) == {Fraction(1): 2}
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
