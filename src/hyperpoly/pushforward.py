"""The pushforward inequality, checked one way for every homomorphism.

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

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import polynomial, ratpoly
from .core import DomainError
from .instances import RATIONALS, Homomorphism
from .polynomial import Poly, poly

# root pools of the sign and the p-adic batches; their order fixes each seed's corpus
DEFAULT_SPLIT_ROOT_POOL = tuple(Fraction(x) for x in
                                ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2"))
DEFAULT_PADIC_ROOT_POOL = tuple(Fraction(x) for x in
                                ("1", "-1", "2", "-2", "4", "-4", "1/2", "-1/2", "3", "-3"))


@dataclass(frozen=True)
class PushforwardReport:
    hom: Homomorphism
    poly: Poly
    image: Poly               # f(p)
    bounds: dict              # b -> mult_b(f(p)), nonzero entries only
    counts: Optional[dict]    # b -> roots of p sent to b; None when unknown
    split_certified: bool
    ok: bool


def verify_pushforward(hom: Homomorphism, p: Poly,
                       roots: Optional[Sequence] = None) -> PushforwardReport:
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


def split_poly_corpus(count: int, seed: int = 0, max_degree: int = 6,
                      root_pool: Sequence = DEFAULT_SPLIT_ROOT_POOL):
    """Deterministic pseudo-random split rational polynomials.

    Yields (Poly, sorted root list).  The polynomial is the exact expansion
    of the chosen roots times a small nonzero leading coefficient.
    """
    rng = random.Random(seed)
    leads = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3))
    for _ in range(count):
        deg = rng.randint(1, max_degree)
        roots = sorted(rng.choice(root_pool) for _ in range(deg))
        lead = rng.choice(leads)
        expanded = ratpoly.expand_roots(roots)
        yield poly(RATIONALS, [c * lead / expanded[-1] for c in expanded]), roots
