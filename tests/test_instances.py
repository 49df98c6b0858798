"""Quotient constructions, isomorphism search, and hyperfield homomorphisms."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    INF,
    DomainError,
    FiniteHyperfield,
    KRASNER,
    ParseError,
    PrimeField,
    RationalField,
    SIGN,
    TROPICAL,
    WEAK_SIGN,
    build_quotient,
    check_axioms,
    check_homomorphism,
    iso_to_named,
    padic_hom,
    padic_valuation,
    parse_field,
    parse_homomorphism,
    quotient_projection,
    sign_hom,
    sign_map,
)
from hyperpoly import instances
from hyperpoly.instances import (
    PRIMALITY_LIMIT,
    QUOTIENT_PRIME_BOUND,
    Homomorphism,
    is_prime,
    table_hom,
)


def ord_by_division(n: int, p: int) -> int:
    """Independent oracle: strip factors of p one by one."""
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def prime_by_division(n: int) -> bool:
    """Independent oracle: trial division up to the square root."""
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(-2, 10 ** 5) if is_prime(n)] == \
            [n for n in range(-2, 10 ** 5) if prime_by_division(n)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=10 ** 5, max_value=PRIMALITY_LIMIT - 1))
    def test_agrees_with_sympy_on_large_n(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("n", [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the primes up to 23
        318665857834031151167461,  # strong pseudoprime to the primes up to 37
    ])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(1000000000000000003)
        assert is_prime(2 ** 61 - 1) and is_prime(2 ** 79 - 67)

    def test_refuses_above_the_limit(self):
        assert not is_prime(PRIMALITY_LIMIT - 1)
        with pytest.raises(DomainError, match=f"only below {PRIMALITY_LIMIT}"):
            is_prime(PRIMALITY_LIMIT)


class TestQuotients:
    def test_f7_mod_squares_is_weak_sign(self):
        q = build_quotient(7, [2])
        assert sorted(q.carrier_values()) == [0, 1, 3]
        mapping = iso_to_named(q, WEAK_SIGN)
        assert mapping is not None
        as_values = {k.value: v.value for k, v in mapping.items()}
        assert as_values == {0: 0, 1: 1, 3: -1}

    def test_trivial_subgroup_gives_the_field_back(self):
        q = build_quotient(5, [1])
        for a in range(5):
            for b in range(5):
                s = q.hyperadd(q.element(a), q.element(b))
                assert [e.value for e in s.enumerate()] == [(a + b) % 5]
        assert iso_to_named(q, PrimeField(5)) is not None

    def test_full_unit_group_gives_krasner(self):
        q = build_quotient(7, [3])
        assert sorted(q.carrier_values()) == [0, 1]
        assert iso_to_named(q, KRASNER) is not None

    def test_unit_without_a_power_equal_to_one_is_not_isomorphic(self):
        # 2*2 = 3 and 2*3 = 3*3 = 3: no power of 2 or 3 is ever 1
        target = build_quotient(7, [6])
        mul = {(0, v): 0 for v in range(4)} | {(1, v): v for v in range(1, 4)}
        mul |= {(2, 2): 3, (2, 3): 3, (3, 3): 3}
        source = FiniteHyperfield("stuck", range(4), 0, 1, mul, target.add_table)
        assert iso_to_named(source, target) is None

    def test_f5_mod_squares_is_not_weak_sign(self):
        # 5 = 1 mod 4: the square classes sum differently, [1]+[1] hits [0].
        q = build_quotient(5, [4])
        assert iso_to_named(q, WEAK_SIGN) is None

    @pytest.mark.parametrize("p", [7, 11, 19, 23, 31])
    def test_squares_quotient_is_weak_sign_for_3_mod_4_primes(self, p):
        squares = sorted({(x * x) % p for x in range(1, p)})
        q = build_quotient(p, squares)
        assert iso_to_named(q, WEAK_SIGN) is not None

    def test_small_index_quotients_satisfy_the_axioms(self):
        # build_quotient does not check the axioms; this covers its tables
        checked = 0
        for p in filter(is_prime, range(QUOTIENT_PRIME_BOUND + 1)):
            for index in range(1, 9):
                if (p - 1) % index:
                    continue
                q = build_quotient(p, [pow(x, index, p) for x in range(1, p)])
                assert len(q.carrier_values()) == index + 1
                report = check_axioms(q)
                assert report.passed, (q.name, report.failing())
                checked += 1
        assert checked == 99

    def test_build_rejects_bad_input(self):
        with pytest.raises(DomainError):
            build_quotient(6, [1])
        with pytest.raises(DomainError):
            build_quotient(7, [0])
        with pytest.raises(DomainError):
            build_quotient(103, [1])  # over QUOTIENT_PRIME_BOUND

    def test_subgroup_closure_from_any_generator_set(self):
        q1 = build_quotient(7, [2])
        q2 = build_quotient(7, [2, 4])
        assert q1.name == q2.name == "quot:7:1,2,4"
        assert q1 == q2

    def test_cosets_partition_units(self):
        q = build_quotient(13, [3])
        units = set(range(1, 13))
        seen = set()
        for rep, coset in q.cosets.items():
            if rep == 0:
                continue
            assert not (coset & seen)
            seen |= coset
        assert seen == units

    def test_projection_is_a_homomorphism(self):
        q = build_quotient(7, [2])
        report = check_homomorphism(quotient_projection(q))
        assert report.passed


class TestSignMap:
    def test_values(self):
        assert sign_map(6).value == 1
        assert sign_map(-7).value == -1
        assert sign_map(0).value == 0
        assert sign_map(Fraction(-3, 5)).value == -1

    def test_is_a_homomorphism_on_samples(self):
        assert check_homomorphism(sign_hom()).passed


class TestPadicValuation:
    def test_against_division_oracle(self):
        assert padic_valuation(-8, 2).value == ord_by_division(-8, 2)
        assert padic_valuation(14, 2).value == ord_by_division(14, 2)
        assert padic_valuation(45, 3).value == ord_by_division(45, 3)

    def test_zero_maps_to_infinity(self):
        assert padic_valuation(0, 5).value is INF

    def test_rational_arguments(self):
        assert padic_valuation(Fraction(3, 8), 2).value == -3
        assert padic_valuation(Fraction(9, 5), 3).value == 2

    def test_nonprime_rejected(self):
        with pytest.raises(DomainError):
            padic_valuation(4, 6)

    @pytest.mark.parametrize("p", [2, 3])
    def test_is_a_homomorphism_on_samples(self, p):
        assert check_homomorphism(padic_hom(p)).passed

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ultrametric_equality_when_valuations_differ(self, p):
        samples = RationalField().sample_values()
        for a in samples:
            for b in samples:
                if a + b == 0:
                    continue
                va, vb = padic_valuation(a, p).value, padic_valuation(b, p).value
                vsum = padic_valuation(a + b, p).value
                trop_sum = TROPICAL.hyperadd(TROPICAL.element(va),
                                             TROPICAL.element(vb))
                assert trop_sum.contains(TROPICAL.element(vsum))
                if va is not INF and vb is not INF and va != vb:
                    assert vsum == min(va, vb)


class TestHomomorphismChecker:
    def test_corrupted_sign_table_fails_with_witness(self):
        bad = table_hom(SIGN, SIGN, {0: 0, 1: -1, -1: 1}, rule="flip")
        report = check_homomorphism(bad)
        assert not report.passed
        rules = {v[0] for v in report.violations}
        assert "f(1)=1" in rules
        witnesses = {(a.value, b.value) for rule, a, b in report.violations
                     if rule == "f(ab)=f(a)f(b)" and b is not None}
        assert (1, 1) in witnesses

    def test_identity_passes_exhaustively(self):
        ident = Homomorphism(SIGN, SIGN, lambda x: x, "identity")
        assert check_homomorphism(ident).passed


class TestSpecStrings:
    @pytest.mark.parametrize("spec", ["Q", "S", "K", "W", "P", "T", "Fp:7",
                                      "quot:7:1,2,4"])
    def test_roundtrip(self, spec):
        assert parse_field(spec).name == spec

    def test_quotient_spec_normalizes_generators(self):
        assert parse_field("quot:7:2").name == "quot:7:1,2,4"

    def test_bad_specs(self):
        for spec in ["X", "Fp:6", "Fp:x", "quot:7", "quot:8:1", "quot:7:0"]:
            with pytest.raises(ParseError):
                parse_field(spec)

    def test_prime_field_spec_tests_primality_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(instances, "is_prime", counted)
        p = 998244353
        F = parse_field(f"Fp:{p}")  # a miss: no live instance yet
        assert calls == [p]
        assert parse_field(f"Fp:{p}") is F  # a hit
        assert calls == [p]
        with pytest.raises(ParseError, match="is not prime"):
            parse_field("Fp:998244351")
        assert calls == [p, 998244351]

    def test_homomorphism_specs(self):
        assert parse_homomorphism("sign").rule == "sign"
        assert parse_homomorphism("padic:3").rule == "padic:3"
        with pytest.raises(ParseError):
            parse_homomorphism("padic:4")
        with pytest.raises(ParseError):
            parse_homomorphism("norm")
