"""Hyperfield homomorphisms, and the pushforward inequality checked one way
for all of them.  Only the ``descartes``, ``newton`` and ``verify`` verbs
load this module.

The homomorphisms are the sign map, the p-adic valuation, the projection
onto a quotient and maps given by a value table, with their checker and
the ``sign`` and ``padic:<p>`` specs.  Each maps raw values to raw values;
calling one on an element checks membership once.

For a homomorphism f of hyperfields and a polynomial p over its source, the
roots of p that f sends to b number at most mult_b(f(p)) (Baker-Lorscheid).
With f = sign this is Descartes' rule of signs; with f = the p-adic
valuation it is the Newton polygon rule.  :func:`verify_pushforward` checks
the inequality for any homomorphism whose target has a closed form or a
finite carrier, and certifies equality when a hint lists every root of a
split rational polynomial.  f(p) is f's raw map applied to each raw
coefficient of p.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction

from . import polynomial, ratpoly
from .core import (INF, DomainError, Element, FrozenRecord, Hyperfield, NonEnumerableError,
                   ParseError, Record)
from .instances import (PRIMALITY_LIMIT, RATIONALS, SIGN, TROPICAL, QuotientHyperfield,
                        _prime_field, is_prime)
from .polynomial import Poly, poly


# -- homomorphisms --------------------------------------------------------------


def _valuation(x: Fraction, p: int):
    """v_p(x) for a prime p: the exponent of p in x, or INF at 0."""
    if x == 0:
        return INF
    num, den, k = x.numerator, x.denominator, 0
    while num % p == 0:
        num, k = num // p, k + 1
    while den % p == 0:
        den, k = den // p, k - 1
    return Fraction(k)


class Homomorphism(FrozenRecord):
    """A map between hyperfields, with the rule it implements.

    ``fn`` maps raw source values to raw target values.  Calling the
    homomorphism on an element is the boundary: it checks that the element
    belongs to ``source`` and wraps the image in ``target``; it is the only
    check, so the kernels apply ``fn`` to raw values directly.

    The optional ``count_roots(p)`` gives the classical roots of a source
    polynomial grouped by image; :func:`verify_pushforward` checks them
    against the target's :func:`~hyperpoly.polynomial.roots`.
    """

    __slots__ = ("source", "target", "fn", "rule", "count_roots")

    def __init__(self, source: Hyperfield, target: Hyperfield, fn: Callable, rule: str,
                 count_roots: Callable | None = None):
        self._init(source, target, fn, rule, count_roots)

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


class HomomorphismReport(Record):
    __slots__ = ("rule", "violations")

    def __init__(self, rule: str, violations: list):
        self.rule, self.violations = rule, violations

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
                   for s in src.hyperadd_raw(a, b)):
            violations.append(("f(a+b) in f(a)+f(b)", Element(src, a), Element(src, b)))
    return HomomorphismReport(hom.rule, violations)


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


# -- the pushforward inequality ------------------------------------------------


# root pools of the sign and the p-adic batches; their order fixes each seed's corpus
DEFAULT_SPLIT_ROOT_POOL = tuple(Fraction(x) for x in
                                ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2"))
DEFAULT_PADIC_ROOT_POOL = tuple(Fraction(x) for x in
                                ("1", "-1", "2", "-2", "4", "-4", "1/2", "-1/2", "3", "-3"))


class PushforwardReport(FrozenRecord):
    __slots__ = ("hom", "poly",
                 "image",   # f(p)
                 "bounds",  # b -> mult_b(f(p)), nonzero entries only
                 "counts",  # b -> roots of p sent to b; None when unknown
                 "split_certified", "ok")

    def __init__(self, hom: Homomorphism, poly: Poly, image: Poly, bounds: dict,
                 counts: dict | None, split_certified: bool, ok: bool):
        self._init(hom, poly, image, bounds, counts, split_certified, ok)


def verify_pushforward(hom: Homomorphism, p: Poly,
                       roots: Sequence | None = None) -> PushforwardReport:
    """Check that the roots of p that ``hom`` sends to b number at most
    mult_b(hom(p)), for every b.

    Bounds are the target's :func:`~hyperpoly.polynomial.roots` of hom(p);
    counts come from ``hom.count_roots`` when the hom has a counter, else
    from ``roots``.  A ``roots`` hint is for polynomials over ``Q``; it must
    list every root n/d of p with multiplicity, so that p is a multiple of
    the integer product of the (d*T - n).  It then certifies the
    factorization, and the counter, the hint and the bounds must agree.
    """
    if p.field is not hom.source:
        raise DomainError(f"{hom.rule} maps polynomials over {hom.source.name}")
    if p.is_zero():
        raise DomainError("cannot verify the zero polynomial")
    image = poly(hom.target, map(hom.fn, p.values()))
    bounds = polynomial.roots(image)
    counts = None
    if hom.count_roots is not None:
        counts = {b: n for b, n in hom.count_roots(p).items() if n}
    certified = roots is not None
    if certified:
        if p.field is not RATIONALS:
            raise DomainError(f"a split hint lists roots over Q, not over {p.field.name}")
        hint = [p.field.validate_value(r) for r in roots]
        coeffs = p.values()
        expanded = ratpoly.expand_roots(hint)
        if [c * expanded[-1] for c in coeffs] != [coeffs[-1] * e for e in expanded]:
            raise DomainError("split hint does not expand to the polynomial")
        hinted = dict(Counter(map(hom.fn, hint)))
        counts = hinted if counts is None else counts
    ok = all(n <= bounds.get(b, 0) for b, n in (counts or {}).items())
    if certified:
        ok = ok and counts == hinted == bounds
    return PushforwardReport(hom, p, image, bounds, counts, certified, ok)


def split_poly_corpus(count: int, seed: int = 0,
                      root_pool: Sequence = DEFAULT_SPLIT_ROOT_POOL):
    """Deterministic pseudo-random split rational polynomials of degree 1 to 6.

    Yields (Poly, sorted root list).  The polynomial is the exact expansion
    of the chosen roots times a small nonzero leading coefficient.
    """
    rng = random.Random(seed)
    leads = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))
    for _ in range(count):
        deg = rng.randint(1, 6)
        roots = sorted(rng.choice(root_pool) for _ in range(deg))
        lead = rng.choice(leads)
        expanded = ratpoly.expand_roots(roots)
        yield poly(RATIONALS, [c * lead / expanded[-1] for c in expanded]), roots
