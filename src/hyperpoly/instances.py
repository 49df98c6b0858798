"""Concrete hyperfields: rationals, prime fields, sign, Krasner, weak sign,
phase, tropical, and quotients of prime fields by multiplicative subgroups,
with the field spec parser.  The homomorphisms between them are in
:mod:`hyperpoly.pushforward`.  ``S`` and ``T`` give their root
multiplicities in closed form, by sign changes and by the Newton polygon,
through the ``rule_roots`` and ``rule_multiplicity`` hooks that
:func:`~hyperpoly.polynomial.roots` and
:func:`~hyperpoly.polynomial.multiplicity` consult.
"""

from __future__ import annotations

import itertools
import re
import sys
import weakref
from fractions import Fraction

from .core import (
    INF,
    DomainError,
    FiniteHyperfield,
    FiniteSet,
    Hyperfield,
    HyperSet,
    NonEnumerableError,
    ParseError,
    PhaseArc,
    TropicalRay,
)
from .polynomial import split_parts


# Miller-Rabin over the first 13 prime bases is exact below this bound
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; larger ``n`` raise :class:`DomainError`."""
    if n >= PRIMALITY_LIMIT:
        raise DomainError(f"{n} is too large: primality is decided only "
                          f"below {PRIMALITY_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _WITNESS_BASES):
        return n in _WITNESS_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for b in _WITNESS_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def _parse_fraction(text: str) -> Fraction:
    """A rational in ``Fraction``'s syntax, refused when its numerator or
    denominator has more digits than ``str`` prints (the int-to-str limit).
    Neither has more digits than the text's ``D`` plus its exponent ``e``.
    ``Fraction`` builds ``10^|e|``, which takes seconds at ``e = 10^7``; past
    ``|e| > limit + D`` the value is zero or too long, as the text shows."""
    text, limit = text.strip(), sys.get_int_max_str_digits()
    exp = _EXPONENT.search(text) if limit else None
    try:
        shift = abs(int(exp[1])) if exp else 0
        if shift > limit + len(text):
            head = text[:exp.start()]
            value = (None if any(c in "123456789" for c in head)
                     else Fraction(head + "e0"))  # zero, without 10^|e|
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse rational {text!r}") from None
    # 2^(3 limit) < 10^limit, so only longer parts need the exact test
    if value is None or len(text) + shift > limit > 0 and any(
            n.bit_length() > 3 * limit and abs(n) >= 10 ** limit
            for n in value.as_integer_ratio()):
        raise ParseError(f"rational {text!r} has more than {limit} digits")
    return value


# -- the rational field, seen as a hyperfield ---------------------------------


class RationalField(Hyperfield):
    """Exact rationals with singleton hypersums: a field in disguise."""

    name = "Q"

    _SAMPLE = [Fraction(v) for v in
               (0, 1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-1, 2),
                                            Fraction(1, 3)]

    def is_finite(self) -> bool:
        return False

    def sample_values(self) -> list:
        return list(self._SAMPLE)

    def zero_value(self):
        return Fraction(0)

    def one_value(self):
        return Fraction(1)

    def validate_value(self, v):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise DomainError(f"{v!r} is not an exact rational")
        return Fraction(v)

    def mul_values(self, x, y):
        return x * y

    def neg_value(self, x):
        return -x

    def inv_value(self, x):
        return 1 / x

    def hyperadd_values(self, x, y) -> HyperSet:
        return FiniteSet(self, frozenset({x + y}))

    def parse_value(self, text: str):
        return _parse_fraction(text)


RATIONALS = RationalField()


ENUMERATION_LIMIT = 1 << 20  # the largest carrier a prime field enumerates


class PrimeField(Hyperfield):
    """The field of integers modulo a prime, with singleton hypersums."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def is_finite(self) -> bool:
        return True

    def carrier_values(self) -> list:
        if self.p > ENUMERATION_LIMIT:
            raise NonEnumerableError(f"{self.name}: {self.p} elements are more than "
                                     f"the enumeration limit {ENUMERATION_LIMIT}")
        return list(range(self.p))

    def zero_value(self):
        return 0

    def one_value(self):
        return 1

    def validate_value(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise DomainError(f"{v!r} is not a residue mod {self.p}")
        return v % self.p

    def mul_values(self, x, y):
        return (x * y) % self.p

    def neg_value(self, x):
        return (-x) % self.p

    def inv_value(self, x):
        return pow(x, -1, self.p)

    def hyperadd_raw(self, x, y) -> frozenset:
        return frozenset({(x + y) % self.p})

    def hyperadd_values(self, x, y) -> HyperSet:
        return FiniteSet(self, self.hyperadd_raw(x, y))

    def parse_value(self, text: str):
        try:
            return int(text.strip()) % self.p
        except ValueError:
            raise ParseError(f"cannot parse residue {text!r}") from None


# one live instance per prime field and per quotient; entries die with it
_LIVE_INSTANCES = weakref.WeakValueDictionary()


def _prime_field(p: int) -> PrimeField:
    """F_p, shared with every other live user of the same prime.

    Primality is tested once, when no live instance exists.
    """
    F = _LIVE_INSTANCES.get(("Fp", p))
    if F is None:
        F = _LIVE_INSTANCES["Fp", p] = PrimeField(p)
    return F


# -- small hyperfields given by rule tables -----------------------------------


def _table_hyperfield(name, values, zero, one, mul, nonzero_add, cls=FiniteHyperfield):
    """Assemble full tables from the nonzero hyperaddition rules plus HG1."""
    add = {}
    for x in values:
        add[(zero, x)] = frozenset({x})
    add.update({k: frozenset(v) for k, v in nonzero_add.items()})
    return cls(name, values, zero, one, mul, add)


class SignHyperfield(FiniteHyperfield):
    """The sign hyperfield, whose roots Descartes' rule gives in closed form."""

    def rule_roots(self, p):
        """Sign changes of p(T) and p(-T) give 1 and -1; the order at zero gives 0."""
        from .descartes import sign_changes, substitute_neg

        zero_order = next(i for i, v in enumerate(p.values()) if v != 0)
        mults = {1: sign_changes(p), -1: sign_changes(substitute_neg(p)), 0: zero_order}
        return {b: m for b, m in mults.items() if m}


def sign_hyperfield() -> SignHyperfield:
    """Three elements {0, 1, -1}; opposite signs sum to everything."""
    mul = {(x, y): x * y for x in (0, 1, -1) for y in (0, 1, -1)}
    rules = {(1, 1): {1}, (-1, -1): {-1}, (1, -1): {0, 1, -1}}
    return _table_hyperfield("S", [0, 1, -1], 0, 1, mul, rules, SignHyperfield)


def krasner_hyperfield() -> FiniteHyperfield:
    """Two elements {0, 1} with 1 + 1 = {0, 1}."""
    mul = {(x, y): x * y for x in (0, 1) for y in (0, 1)}
    return _table_hyperfield("K", [0, 1], 0, 1, mul, {(1, 1): {0, 1}})


def weak_sign_hyperfield() -> FiniteHyperfield:
    """Like the sign hyperfield, but equal signs also sum to {1, -1}."""
    mul = {(x, y): x * y for x in (0, 1, -1) for y in (0, 1, -1)}
    rules = {(1, 1): {1, -1}, (-1, -1): {1, -1}, (1, -1): {0, 1, -1}}
    return _table_hyperfield("W", [0, 1, -1], 0, 1, mul, rules)


SIGN = sign_hyperfield()
KRASNER = krasner_hyperfield()
WEAK_SIGN = weak_sign_hyperfield()


# -- the tropical hyperfield ---------------------------------------------------


class TropicalHyperfield(Hyperfield):
    """Min-plus arithmetic on the extended rationals.

    The neutral element of hyperaddition is ``inf``; multiplication is real
    addition.  ``a + a`` is the ray ``[a, inf]``, so every hypersum is one
    value or one ray: ``{min}`` when the minimum of the finite terms is
    attained once, the ray ``[min, inf]`` when it is attained at least
    twice, ``{inf}`` when every term is ``inf``.  Adding ``c`` to a hypersum
    needs only that closed form.
    """

    name = "T"
    enumerable_sums = False

    _SAMPLE = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
               Fraction(1, 3), Fraction(1), Fraction(7, 2), INF]

    def is_finite(self) -> bool:
        return False

    def sample_values(self) -> list:
        return list(self._SAMPLE)

    def zero_value(self):
        return INF

    def one_value(self):
        return Fraction(0)

    def validate_value(self, v):
        if v is INF:
            return v
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise DomainError(f"{v!r} is not a tropical value")
        return Fraction(v)

    def mul_values(self, x, y):
        if x is INF or y is INF:
            return INF
        return x + y

    def neg_value(self, x):
        return x  # every tropical value is its own hyperinverse

    def inv_value(self, x):
        return -x

    def hyperadd_values(self, x, y) -> HyperSet:
        if x is INF:
            return FiniteSet(self, frozenset({y}))
        if y is INF:
            return FiniteSet(self, frozenset({x}))
        if x == y:
            return TropicalRay(self, x)
        return FiniteSet(self, frozenset({min(x, y)}))

    def add_set_value(self, s: HyperSet, c) -> HyperSet:
        if isinstance(s, TropicalRay):
            if c is INF or c >= s.lower:
                return s
            return FiniteSet(self, frozenset({c}))
        if isinstance(s, FiniteSet) and len(s.values) == 1:
            (v,) = s.values
            return self.hyperadd_values(v, c)
        raise DomainError(f"{s!r} is not a tropical hypersum")

    def scale_set_value(self, a, s: HyperSet) -> HyperSet:
        if isinstance(s, TropicalRay) and a is not INF:
            return TropicalRay(self, s.lower + a)
        return super().scale_set_value(a, s)

    def format_value(self, v) -> str:
        return "inf" if v is INF else str(v)

    def parse_value(self, text: str):
        text = text.strip()
        if text == "inf":
            return INF
        return _parse_fraction(text)

    def sort_key(self, v):
        return (1, 0) if v is INF else (0, v)

    def rule_multiplicity(self, p, a):
        from .tropical_newton import mult_tropical

        return mult_tropical(p, a)

    def rule_roots(self, p):
        """The Newton polygon: one root s per unit length of its slope -s."""
        from .tropical_newton import newton_polygon

        return newton_polygon(p).roots()


TROPICAL = TropicalHyperfield()


# -- the phase hyperfield --------------------------------------------------

# Angles are rationals q in [0, 2), in units of pi, standing for e^{i*pi*q};
# the additive zero is the value None.


class PhaseHyperfield(Hyperfield):
    """The unit circle plus zero, the quotient ``C/R>0``.

    A hypersum is the set of directions of the strictly positive
    combinations of its terms: the relative interior of the convex cone
    they span.  So it is ``{0}``, a point, an antipodal pair with zero
    ``{0, a, -a}``, one open arc of at most pi, or every angle with zero.
    The sum of equal arguments is the singleton ``{a}``: in the quotient model
    the open ray of ``a`` is closed under addition.  That convention is not
    part of the instance's rule list and is surfaced in the axiom report.
    """

    name = "P"
    enumerable_sums = False

    axiom_notes = (
        "equal-argument rule a+a={a} adopted from the quotient model C/R>0",
    )

    _SAMPLE = [None, Fraction(0), Fraction(1, 3), Fraction(1, 2),
               Fraction(1), Fraction(3, 2), Fraction(5, 3)]

    def is_finite(self) -> bool:
        return False

    def sample_values(self) -> list:
        return list(self._SAMPLE)

    def zero_value(self):
        return None

    def one_value(self):
        return Fraction(0)

    def validate_value(self, v):
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise DomainError(f"{v!r} is not a phase angle")
        return Fraction(v) % 2

    def mul_values(self, x, y):
        if x is None or y is None:
            return None
        return (x + y) % 2

    def neg_value(self, x):
        if x is None:
            return None
        return (x + 1) % 2

    def inv_value(self, x):
        return (-x) % 2

    def hyperadd_values(self, x, y) -> HyperSet:
        return self.add_set_value(FiniteSet(self, frozenset({x})), y)

    def add_set_value(self, s: HyperSet, c) -> HyperSet:
        """Widen the cone of the hypersum ``s`` by the direction ``c``.

        The cone is the closed arc ``[lo, lo + width]`` of the directions of
        the terms of ``s``; an antipodal pair alone spans a line, a cone with
        no side, and each direction off it gives the open half circle on its
        side.
        """
        line = False
        if isinstance(s, PhaseArc):
            lo, width = s.lo, s.length
        else:
            vals = sorted(s.values, key=self.sort_key) if isinstance(s, FiniteSet) else []
            if vals == [None]:
                return FiniteSet(self, frozenset({c}))
            line = len(vals) == 3 and vals[0] is None and vals[2] - vals[1] == 1
            if not (line or len(vals) == 1):
                raise DomainError(f"{s!r} is not a phase hypersum")
            lo, width = vals[-1], 0
        if c is None:
            return s
        g = (c - lo) % 2  # how far c lies past lo, counterclockwise
        if line:
            if g % 1 == 0:
                return s
            return PhaseArc(self, lo if g < 1 else (lo + 1) % 2, Fraction(1))
        if g <= width:
            return s
        if g == 1 and width == 0:
            return FiniteSet(self, frozenset({None, lo, c}))
        if g <= 1:
            return PhaseArc(self, lo, g)
        if g >= 1 + width:
            return PhaseArc(self, c, width + 2 - g)
        return PhaseArc(self, Fraction(0), Fraction(2))

    def scale_set_value(self, a, s: HyperSet) -> HyperSet:
        if isinstance(s, PhaseArc) and a is not None:
            if s.length == 2:
                return s
            return PhaseArc(self, (s.lo + a) % 2, s.length)
        return super().scale_set_value(a, s)

    def format_value(self, v) -> str:
        return "zero" if v is None else str(v)

    def parse_value(self, text: str):
        text = text.strip()
        if text in ("zero", "0j"):
            return None
        return _parse_fraction(text) % 2

    def sort_key(self, v):
        return (0, Fraction(0)) if v is None else (1, v)


PHASE = PhaseHyperfield()


# -- quotient hyperfields ------------------------------------------------------


QUOTIENT_PRIME_BOUND = 101


class QuotientHyperfield(FiniteHyperfield):
    """The quotient of a prime field by a multiplicative subgroup.

    Cosets are represented by their least residue; hyperaddition of cosets is
    the set of cosets of elementwise sums, precomputed exhaustively at build
    time.
    """

    def __init__(self, p: int, generators):
        self.p = p
        self.subgroup = subgroup = _subgroup(p, generators)
        coset_of = {0: 0}
        cosets = {0: frozenset({0})}
        for r in range(1, p):
            if r in coset_of:
                continue
            coset = frozenset((r * g) % p for g in subgroup)
            rep = min(coset)
            for x in coset:
                coset_of[x] = rep
            cosets[rep] = coset
        self.coset_of = coset_of
        self.cosets = cosets
        reps = sorted(cosets)
        name = f"quot:{p}:" + ",".join(str(g) for g in sorted(subgroup))
        # both tables whole, so FiniteHyperfield keeps them as they are
        mul = {(a, b): coset_of[(a * b) % p] for a in reps for b in reps}
        if len(subgroup) == 1:  # one residue per sum, one frozenset per residue
            single = [frozenset({r}) for r in range(p)]
            add = {(a, b): single[(a + b) % p] for a in reps for b in reps}
        else:  # ah + bh' = h(a + bh'/h): the cosets of a + y for y in bH
            add = {}
            for a, b in itertools.combinations_with_replacement(reps, 2):
                add[a, b] = add[b, a] = frozenset({coset_of[(a + y) % p]
                                                   for y in cosets[b]})
        super().__init__(name, reps, 0, 1, mul, add)


def _subgroup(p: int, generators) -> frozenset:
    """The subgroup of the units mod ``p`` that ``generators`` generate,
    after the checks on the spec of a quotient."""
    if p > QUOTIENT_PRIME_BOUND:
        raise DomainError(f"quotient base {p} exceeds bound "
                          f"{QUOTIENT_PRIME_BOUND}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    gens = [g % p for g in generators] or [1]
    if any(g == 0 for g in gens):
        raise DomainError("subgroup generators must be nonzero mod p")
    subgroup = frontier = {1}
    while frontier:
        frontier = {(x * g) % p for x in frontier for g in gens} - subgroup
        subgroup = subgroup | frontier
    return frozenset(subgroup)


def build_quotient(p: int, generators) -> QuotientHyperfield:
    """Build F_p modulo the subgroup generated by ``generators``.

    Generator lists that close to the same subgroup give the same instance
    for as long as one is alive elsewhere, so their elements can be mixed;
    nothing keeps an instance alive beyond its last user.  Such a quotient
    is always a hyperfield, so its axioms are checked only on request, by
    :func:`check_axioms`.
    """
    key = ("quot", p, _subgroup(p, generators))
    q = _LIVE_INSTANCES.get(key)
    if q is None:
        q = _LIVE_INSTANCES[key] = QuotientHyperfield(p, generators)
    return q


# -- spec strings ----------------------------------------------------------------


def parse_field(spec: str) -> Hyperfield:
    """Parse a hyperfield spec string.

    Known forms: ``Q``, ``Fp:<p>``, ``S``, ``K``, ``W``, ``P``, ``T``,
    ``quot:<p>:<g1,g2,...>``.  The named forms return the module singletons
    (``parse_field("S") is SIGN``); ``Fp:<p>`` and quotients share one live
    instance per prime and per subgroup.  Nothing is verified beyond the spec.
    """
    spec = spec.strip()
    named = {"Q": RATIONALS, "S": SIGN, "K": KRASNER, "W": WEAK_SIGN,
             "P": PHASE, "T": TROPICAL}
    if spec in named:
        return named[spec]
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ParseError(f"bad prime in field spec {spec!r}") from None
        try:
            return _prime_field(p)
        except DomainError as exc:
            if p >= PRIMALITY_LIMIT:  # too large to decide: a domain error
                raise
            raise ParseError(str(exc)) from None
    if spec.startswith("quot:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad quotient spec {spec!r}")
        if not parts[2].strip():
            raise ParseError(f"quotient spec {spec!r} lists no generators")
        entries = split_parts(parts[2])
        try:
            p = int(parts[1])
            gens = [int(g) for g in entries]
        except ValueError:
            raise ParseError(f"bad quotient spec {spec!r}") from None
        try:
            return build_quotient(p, gens)
        except DomainError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown hyperfield spec {spec!r}")
