"""Concrete hyperfields: rationals, prime fields, sign, Krasner, weak sign,
phase, tropical, and quotients of prime fields by multiplicative subgroups;
plus hyperfield homomorphisms (sign, p-adic valuation, quotient projection,
value tables) and their checker.  A homomorphism maps raw values to raw
values; calling it on an element checks membership once.  ``S`` and ``T``
give their root multiplicities in closed form, by sign changes and by the
Newton polygon, through the ``rule_roots`` and ``rule_multiplicity`` hooks
that :func:`~hyperpoly.polynomial.roots` and
:func:`~hyperpoly.polynomial.multiplicity` consult.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import (
    INF,
    DomainError,
    Element,
    FiniteHyperfield,
    FiniteSet,
    Hyperfield,
    HyperSet,
    NonEnumerableError,
    ParseError,
    PhaseUnion,
    TropicalRay,
    unit_powers,
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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse rational {text!r}") from None


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

    def hyperadd_values(self, x, y) -> HyperSet:
        return FiniteSet(self, frozenset({(x + y) % self.p}))

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
    addition.  ``a + a`` is the ray ``[a, inf]``, so an n-ary hypersum is a
    singleton when the minimum is attained once among the finite terms, a
    ray when it is attained at least twice, ``{inf}`` when every term is
    ``inf``.
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
                return TropicalRay(self, s.lower)
            return FiniteSet(self, frozenset({c}))
        rays = []
        finite = set()
        for v in s.values:
            r = self.hyperadd_values(v, c)
            if isinstance(r, TropicalRay):
                rays.append(r.lower)
            else:
                finite |= r.values
        if not rays:
            return FiniteSet(self, frozenset(finite))
        low = min(rays)
        if all(v is INF or v >= low for v in finite):
            return TropicalRay(self, low)
        raise DomainError("tropical union is neither finite nor a ray")

    def scale_set_value(self, a, s: HyperSet) -> HyperSet:
        if isinstance(s, TropicalRay):
            return TropicalRay(self, s.lower + a)
        return FiniteSet(self, frozenset(self.mul_values(a, v) for v in s.values))

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


def _phase_full(field, has_zero: bool) -> PhaseUnion:
    third = Fraction(2, 3)
    arcs = ((Fraction(0), third), (third, 2 * third), (2 * third, Fraction(2)))
    return PhaseUnion(field, has_zero, arcs, frozenset({Fraction(0), third, 2 * third}))


def phase_canonical(field, has_zero, raw_arcs, raw_points):
    """Canonicalize a union of open arcs and points on the circle.

    ``raw_arcs`` are (lo, hi) pairs with positive length; anything of length
    two or more is the whole circle.  The output is a :class:`PhaseUnion` in
    canonical form, or a :class:`FiniteSet` when no arc survives, so equal
    sets always compare equal.
    """
    arcs = []
    for lo, hi in raw_arcs:
        length = hi - lo
        if length <= 0:
            continue
        if length >= 2:
            return _phase_full(field, has_zero)
        arcs.append((lo % 2, length))
    points = {Fraction(q) % 2 for q in raw_points}

    if not arcs:
        values = set(points)
        if has_zero:
            values.add(None)
        return FiniteSet(field, frozenset(values))

    def member(q) -> bool:
        qm = q % 2
        if qm in points:
            return True
        return any(0 < (qm - lo) % 2 < ln for lo, ln in arcs)

    crit = sorted({lo for lo, _ in arcs}
                  | {(lo + ln) % 2 for lo, ln in arcs}
                  | points)
    m = len(crit)
    gap_hi = [crit[i + 1] if i + 1 < m else crit[0] + 2 for i in range(m)]
    # Items alternate around the circle: point crit[i], then gap (crit[i], gap_hi[i]).
    items = []
    for i in range(m):
        items.append(("pt", crit[i], crit[i], member(crit[i])))
        mid = (crit[i] + gap_hi[i]) / 2
        items.append(("gap", crit[i], gap_hi[i], member(mid)))
    if all(it[3] for it in items):
        return _phase_full(field, has_zero)

    start = next(i for i, it in enumerate(items) if not it[3])
    order = items[start + 1:] + items[:start + 1]
    out_arcs = []
    out_points = set()

    def emit(run):
        s = run[0][1]
        e = s
        for kind, lo, hi, _ in run:
            if kind == "gap":
                e += hi - lo
        if s == e:
            out_points.add(s % 2)
            return
        if run[0][0] == "pt":
            out_points.add(s % 2)
        if run[-1][0] == "pt":
            out_points.add(e % 2)
        length = e - s
        pieces = 1 if length < 1 else (2 if length < 2 else 3)
        step = length / pieces
        for j in range(pieces):
            a = s + j * step
            out_arcs.append((a % 2, a % 2 + step))
            if j > 0:
                out_points.add(a % 2)

    run = []
    for it in order:
        if it[3]:
            run.append(it)
        else:
            if run:
                emit(run)
            run = []
    if run:
        emit(run)

    if not out_arcs:
        values = set(out_points)
        if has_zero:
            values.add(None)
        return FiniteSet(field, frozenset(values))
    return PhaseUnion(field, has_zero, tuple(sorted(out_arcs)), frozenset(out_points))


def _arc_plus_point(alpha, beta, gamma):
    """Pieces of ``{b + g : b in the open arc (alpha, beta)}`` for a point g.

    Derived from the quotient model C / R_{>0}: the arc is an open convex
    cone of angle < pi, the point a ray, and the Minkowski sum projects back
    to arcs.  Returns (has_zero, list-of-arcs); the whole circle appears when
    the antipode of g lies inside the arc.
    """
    g = alpha + ((gamma - alpha) % 2)
    if g <= beta:
        return False, [(alpha, beta)]
    if g <= alpha + 1:
        return False, [(alpha, g)]
    if g < beta + 1:
        return True, [(Fraction(0), Fraction(2))]
    return False, [(g - 2, beta)]


class PhaseHyperfield(Hyperfield):
    """The unit circle plus zero; hypersums are minor arcs or antipodal triples.

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
        if x is None:
            return FiniteSet(self, frozenset({y}))
        if y is None:
            return FiniteSet(self, frozenset({x}))
        if x == y:
            return FiniteSet(self, frozenset({x}))
        d = (y - x) % 2
        if d == 1:
            return FiniteSet(self, frozenset({None, x, y}))
        if d < 1:
            return phase_canonical(self, False, [(x, x + d)], [])
        return phase_canonical(self, False, [(y, y + (2 - d))], [])

    def _pieces(self, s: HyperSet):
        """Decompose a hyperset into (has_zero, arcs, point angles)."""
        if isinstance(s, FiniteSet):
            return (None in s.values, [],
                    [v for v in s.values if v is not None])
        if isinstance(s, PhaseUnion):
            return s.has_zero, list(s.arcs), list(s.points)
        raise DomainError("not a phase hyperset")

    def add_set_value(self, s: HyperSet, c) -> HyperSet:
        zero_in, arcs, pts = self._pieces(s)
        if c is None:
            return s
        out_zero = False
        out_arcs = []
        out_pts = []
        if zero_in:
            out_pts.append(c)
        for q in pts:
            z, a, p = self._pieces(self.hyperadd_values(q, c))
            out_zero |= z
            out_arcs += a
            out_pts += p
        for lo, hi in arcs:
            z, a = _arc_plus_point(lo, hi, c)
            out_zero |= z
            out_arcs += a
        return phase_canonical(self, out_zero, out_arcs, out_pts)

    def scale_set_value(self, a, s: HyperSet) -> HyperSet:
        zero_in, arcs, pts = self._pieces(s)
        rotated = [(lo + a, hi + a) for lo, hi in arcs]
        return phase_canonical(self, zero_in, rotated, [(q + a) % 2 for q in pts])

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
        if p > QUOTIENT_PRIME_BOUND:
            raise DomainError(f"quotient base {p} exceeds bound "
                              f"{QUOTIENT_PRIME_BOUND}")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        gens = [g % p for g in generators]
        if any(g == 0 for g in gens):
            raise DomainError("subgroup generators must be nonzero mod p")
        if not gens:
            gens = [1]
        subgroup = {1}
        frontier = [1]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = (x * g) % p
                if y not in subgroup:
                    subgroup.add(y)
                    frontier.append(y)
        self.p = p
        self.subgroup = frozenset(subgroup)
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
        mul = {(a, b): coset_of[(a * b) % p] for a in reps for b in reps}
        add = {}
        for a in reps:
            for b in reps:
                sums = {coset_of[(x + y) % p]
                        for x in cosets[a] for y in cosets[b]}
                add[(a, b)] = frozenset(sums)
        super().__init__(name, reps, 0, 1, mul, add)


def build_quotient(p: int, generators) -> QuotientHyperfield:
    """Build F_p modulo the subgroup generated by ``generators``.

    Generator lists that close to the same subgroup give the same instance
    for as long as one is alive elsewhere, so their elements can be mixed;
    nothing keeps an instance alive beyond its last user.  Such a quotient
    is always a hyperfield, so its axioms are checked only on request, by
    :func:`check_axioms`.
    """
    q = QuotientHyperfield(p, generators)
    return _LIVE_INSTANCES.setdefault(("quot", p, q.subgroup), q)


def iso_to_named(source: Hyperfield, target: Hyperfield) -> Optional[dict]:
    """Search for an isomorphism between two finite hyperfields.

    Both unit groups must be cyclic of one order ``n``.  An isomorphism
    fixes 0 and 1 and sends a generator ``g`` of the source to a generator
    ``h`` of the target, so it is enough to try ``g^i -> h^i`` for each
    ``h`` and keep a map that carries both tables onto the target's.
    Returns an element-to-element dict or None.
    """
    if not (source.is_finite() and target.is_finite()):
        raise NonEnumerableError("isomorphism search needs finite instances")
    powers, target_powers = unit_powers(source), unit_powers(target)
    if not (powers and target_powers and len(powers) == len(target_powers)):
        return None
    n = len(powers)
    target_log = {v: k for k, v in enumerate(target_powers)}
    values = source.carrier_values()
    for h in target.carrier_values():
        k = target_log.get(h)
        if k is None or math.gcd(k, n) != 1:
            continue
        mapping = {source.zero_value(): target.zero_value()}
        mapping.update((x, target_powers[i * k % n]) for i, x in enumerate(powers))
        if all(
            mapping[source.mul_values(a, b)]
            == target.mul_values(mapping[a], mapping[b])
            and frozenset(mapping[x] for x in source.hyperadd_values(a, b).values)
            == target.hyperadd_values(mapping[a], mapping[b]).values
            for a in values for b in values
        ):
            return {Element(source, x): Element(target, y)
                    for x, y in mapping.items()}
    return None


# -- homomorphisms --------------------------------------------------------------


def padic_ord(n: int, p: int) -> int:
    """Largest k with p^k dividing the nonzero integer n."""
    if n == 0:
        raise DomainError("ord_p(0) is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def padic_valuation(x, p: int) -> Element:
    """The p-adic valuation of a rational, as a tropical element; v(0) = inf."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return Element(TROPICAL, _valuation(Fraction(x), p))


def _valuation(x: Fraction, p: int):
    if x == 0:
        return INF
    return Fraction(padic_ord(x.numerator, p) - padic_ord(x.denominator, p))


@dataclass(frozen=True)
class Homomorphism:
    """A map between hyperfields, with the rule it implements.

    ``fn`` maps raw source values to raw target values.  Calling the
    homomorphism on an element is the boundary: it checks that the element
    belongs to ``source`` and wraps the image in ``target``; it is the only
    check, so the kernels apply ``fn`` to raw values directly.

    The optional ``count_roots(p)`` gives the classical roots of a source
    polynomial grouped by image; :func:`hyperpoly.pushforward.verify_pushforward`
    checks them against the target's :func:`~hyperpoly.polynomial.roots`.
    """

    source: Hyperfield
    target: Hyperfield
    fn: Callable
    rule: str
    count_roots: Optional[Callable] = None

    def __call__(self, x: Element) -> Element:
        self.source.check_member(x)
        return Element(self.target, self.fn(x.value))


def sign_hom() -> Homomorphism:
    from .descartes import count_roots_by_sign

    return Homomorphism(RATIONALS, SIGN, lambda x: (x > 0) - (x < 0), "sign",
                        count_roots=count_roots_by_sign)


def padic_hom(p: int) -> Homomorphism:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return Homomorphism(RATIONALS, TROPICAL, lambda x: _valuation(x, p), f"padic:{p}")


def quotient_projection(q: QuotientHyperfield) -> Homomorphism:
    return Homomorphism(_prime_field(q.p), q, q.coset_of.__getitem__,
                        f"project:{q.name}")


def table_hom(source: Hyperfield, target: Hyperfield, table: dict,
              rule: str = "custom") -> Homomorphism:
    """The map ``table``; a finite source's every value must map into ``target``."""
    for x in source.carrier_values() if source.is_finite() else ():
        if x not in table:
            raise DomainError(f"{rule}: no entry for {source.format_value(x)}")
        if target.validate_value(table[x]) != table[x]:
            raise DomainError(f"{rule}: {table[x]!r} is not a value of {target.name}")
    return Homomorphism(source, target, table.__getitem__, rule)


@dataclass
class HomomorphismReport:
    rule: str
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def check_homomorphism(hom: Homomorphism) -> HomomorphismReport:
    """Verify f(0)=0, f(1)=1, f(ab)=f(a)f(b) and f(a+b) in f(a)+f(b).

    Exhaustive when the source carrier is finite, otherwise over the source's
    deterministic sample grid.  Runs on raw values through ``hom.fn``; each
    violation names its arguments as source elements.
    """
    src, tgt, f = hom.source, hom.target, hom.fn
    if not src.enumerable_sums:
        raise NonEnumerableError(f"{src.name}: source hypersums are not enumerable")
    violations = []
    if f(src.zero_value()) != tgt.zero_value():
        violations.append(("f(0)=0", src.zero(), None))
    if f(src.one_value()) != tgt.one_value():
        violations.append(("f(1)=1", src.one(), None))
    for a, b in itertools.product(src.sample_values(), repeat=2):
        fa, fb = f(a), f(b)
        if f(src.mul_values(a, b)) != tgt.mul_values(fa, fb):
            violations.append(("f(ab)=f(a)f(b)", Element(src, a), Element(src, b)))
        # the image of the source hypersum must land inside the target's
        image_sum = tgt.hyperadd_values(fa, fb)
        if not all(image_sum.contains_value(f(s))
                   for s in src.hyperadd_values(a, b).values):
            violations.append(("f(a+b) in f(a)+f(b)", Element(src, a), Element(src, b)))
    return HomomorphismReport(hom.rule, violations)


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


def parse_homomorphism(spec: str) -> Homomorphism:
    """Parse a homomorphism spec: ``sign`` or ``padic:<p>``."""
    spec = spec.strip()
    if spec == "sign":
        return sign_hom()
    if spec.startswith("padic:"):
        try:
            p = int(spec[6:])
        except ValueError:
            raise ParseError(f"bad prime in {spec!r}") from None
        try:
            return padic_hom(p)
        except DomainError as exc:
            if p >= PRIMALITY_LIMIT:  # too large to decide: a domain error
                raise
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown homomorphism spec {spec!r}")
