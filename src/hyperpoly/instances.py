"""Concrete hyperfields: rationals, prime fields, sign, Krasner, weak sign,
phase, tropical, and quotients of prime fields by multiplicative subgroups;
plus hyperfield homomorphisms (sign map, p-adic valuation) and their checker.
"""

from __future__ import annotations

import itertools
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
    check_axioms,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


# -- small hyperfields given by rule tables -----------------------------------


def _table_hyperfield(name, values, zero, one, mul, nonzero_add):
    """Assemble full tables from the nonzero hyperaddition rules plus HG1."""
    add = {}
    for x in values:
        add[(zero, x)] = frozenset({x})
    add.update({k: frozenset(v) for k, v in nonzero_add.items()})
    return FiniteHyperfield(name, values, zero, one, mul, add)


def sign_hyperfield() -> FiniteHyperfield:
    """Three elements {0, 1, -1}; opposite signs sum to everything."""
    mul = {(x, y): x * y for x in (0, 1, -1) for y in (0, 1, -1)}
    rules = {(1, 1): {1}, (-1, -1): {-1}, (1, -1): {0, 1, -1}}
    return _table_hyperfield("S", [0, 1, -1], 0, 1, mul, rules)


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
    addition.  ``a + a`` is the ray ``[a, inf]``, so n-ary hypersums have the
    closed form: a singleton when the minimum is attained once among the
    finite terms, a ray when it is attained at least twice, ``{inf}`` when
    every term is ``inf``.
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

    def hypersum(self, terms) -> HyperSet:
        for t in terms:
            self.check_member(t)
        finite = [t.value for t in terms if t.value is not INF]
        if not finite:
            return FiniteSet(self, frozenset({INF}))
        m = min(finite)
        if finite.count(m) == 1:
            return FiniteSet(self, frozenset({m}))
        return TropicalRay(self, m)

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

# one live instance per (p, subgroup); entries vanish with their instance
_QUOTIENTS = weakref.WeakValueDictionary()


class QuotientHyperfield(FiniteHyperfield):
    """The quotient of a prime field by a multiplicative subgroup.

    Cosets are represented by their least residue; hyperaddition of cosets is
    the set of cosets of elementwise sums, precomputed exhaustively at build
    time.
    """

    def __init__(self, p: int, generators, bound: int = QUOTIENT_PRIME_BOUND):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if p > bound:
            raise DomainError(f"quotient base prime {p} exceeds bound {bound}")
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

    def project(self, residue: int) -> Element:
        """The coset of a residue, as an element of the quotient."""
        return Element(self, self.coset_of[residue % self.p])


def build_quotient(p: int, generators, bound: int = QUOTIENT_PRIME_BOUND,
                   check: bool = True) -> QuotientHyperfield:
    """Build F_p modulo the subgroup generated by ``generators``.

    Generator lists that close to the same subgroup give the same instance
    for as long as one is alive elsewhere, so their elements can be mixed;
    nothing keeps an instance alive beyond its last user.  The result always
    satisfies the hyperfield axioms; by default this is verified at every
    call as a guard against table bugs (callers that immediately re-run the
    checker can pass ``check=False``).
    """
    q = QuotientHyperfield(p, generators, bound)
    q = _QUOTIENTS.setdefault((p, q.subgroup), q)
    if check:
        report = check_axioms(q)
        if not report.passed:
            failing = ", ".join(c.axiom for c in report.failing())
            raise DomainError(f"quotient {q.name} violates axioms: {failing}")
    return q


def _multiplicative_order(F: FiniteHyperfield, x) -> int:
    acc = x
    n = 1
    while acc != F.one_value():
        acc = F.mul_values(acc, x)
        n += 1
    return n


def iso_to_named(source: Hyperfield, target: Hyperfield) -> Optional[dict]:
    """Search for an isomorphism between two finite hyperfields.

    Both unit groups here are cyclic, so it is enough to try every image of
    one generator; the map must fix 0 and 1 and carry the hyperaddition
    table onto the target's.  Returns an element-to-element dict or None.
    """
    if not (source.is_finite() and target.is_finite()):
        raise NonEnumerableError("isomorphism search needs finite instances")
    su = [v for v in source.carrier_values() if v != source.zero_value()]
    tu = [v for v in target.carrier_values() if v != target.zero_value()]
    if len(su) != len(tu):
        return None
    n = len(su)
    gen = next((x for x in su if _multiplicative_order(source, x) == n), None)
    if gen is None:
        return None
    powers = []
    acc = source.one_value()
    for _ in range(n):
        acc = source.mul_values(acc, gen)
        powers.append(acc)
    for h in tu:
        if _multiplicative_order(target, h) != n:
            continue
        mapping = {source.zero_value(): target.zero_value()}
        acc = target.one_value()
        ok = True
        for x in powers:
            acc = target.mul_values(acc, h)
            if x in mapping:
                ok = mapping[x] == acc
            mapping[x] = acc
        if not ok or len(set(mapping.values())) != n + 1:
            continue
        if all(
            frozenset(mapping[x.value]
                      for x in source.hyperadd_values(a, b).enumerate())
            == frozenset(x.value
                         for x in target.hyperadd_values(mapping[a], mapping[b])
                         .enumerate())
            for a in source.carrier_values() for b in source.carrier_values()
        ):
            return {Element(source, k): Element(target, v)
                    for k, v in mapping.items()}
    return None


# -- homomorphisms --------------------------------------------------------------


def sign_map(x) -> Element:
    """The sign of an exact rational, in the sign hyperfield."""
    x = Fraction(x)
    return Element(SIGN, 0 if x == 0 else (1 if x > 0 else -1))


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
    x = Fraction(x)
    if x == 0:
        return Element(TROPICAL, INF)
    v = padic_ord(x.numerator, p) - padic_ord(x.denominator, p)
    return Element(TROPICAL, Fraction(v))


@dataclass(frozen=True)
class Homomorphism:
    """A map between hyperfields, with the rule it implements."""

    source: Hyperfield
    target: Hyperfield
    fn: Callable
    rule: str

    def __call__(self, x) -> Element:
        return self.fn(x)


def sign_hom() -> Homomorphism:
    return Homomorphism(RATIONALS, SIGN, lambda x: sign_map(x.value), "sign")


def padic_hom(p: int) -> Homomorphism:
    return Homomorphism(RATIONALS, TROPICAL, lambda x: padic_valuation(x.value, p),
                        f"padic:{p}")


def quotient_projection(q: QuotientHyperfield) -> Homomorphism:
    Fp = PrimeField(q.p)
    return Homomorphism(Fp, q, lambda x: q.project(x.value),
                        f"project:{q.name}")


def table_hom(source: Hyperfield, target: Hyperfield, table: dict,
              rule: str = "custom") -> Homomorphism:
    return Homomorphism(source, target,
                        lambda x: Element(target, table[x.value]), rule)


@dataclass
class HomomorphismReport:
    rule: str
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def check_homomorphism(hom: Homomorphism, pairs=None) -> HomomorphismReport:
    """Verify f(0)=0, f(1)=1, f(ab)=f(a)f(b) and f(a+b) in f(a)+f(b).

    Exhaustive when the source carrier is finite, otherwise over the source's
    deterministic sample grid (or an explicit list of element pairs).
    """
    src, tgt = hom.source, hom.target
    violations = []
    if hom(src.zero()) != tgt.zero():
        violations.append(("f(0)=0", src.zero(), None))
    if hom(src.one()) != tgt.one():
        violations.append(("f(1)=1", src.one(), None))
    if pairs is None:
        elems = src.elements() if src.is_finite() else src.sample_elements()
        pairs = list(itertools.product(elems, repeat=2))
    for a, b in pairs:
        fa, fb = hom(a), hom(b)
        if hom(src.mul(a, b)) != tgt.mul(fa, fb):
            violations.append(("f(ab)=f(a)f(b)", a, b))
        # the image of the source hypersum must land inside the target's
        for s in src.hyperadd(a, b).enumerate():
            if not tgt.hyperadd(fa, fb).contains(hom(s)):
                violations.append(("f(a+b) in f(a)+f(b)", a, b))
                break
    return HomomorphismReport(hom.rule, violations)


# -- spec strings ----------------------------------------------------------------


def parse_field(spec: str) -> Hyperfield:
    """Parse a hyperfield spec string.

    Known forms: ``Q``, ``Fp:<p>``, ``S``, ``K``, ``W``, ``P``, ``T``,
    ``quot:<p>:<g1,g2,...>``.  The named forms return the module singletons
    (``parse_field("S") is SIGN``) and quotients come from
    :func:`build_quotient`; ``Fp:<p>`` builds a new instance.
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
            return PrimeField(p)
        except DomainError as exc:
            raise ParseError(str(exc)) from None
    if spec.startswith("quot:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad quotient spec {spec!r}")
        try:
            p = int(parts[1])
            gens = [int(g) for g in parts[2].split(",") if g.strip()]
        except ValueError:
            raise ParseError(f"bad quotient spec {spec!r}") from None
        if not gens:
            raise ParseError(f"quotient spec {spec!r} lists no generators")
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
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
        return padic_hom(p)
    raise ParseError(f"unknown homomorphism spec {spec!r}")
