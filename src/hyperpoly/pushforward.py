"""The pushforward inequality, checked one way for every homomorphism.

For a homomorphism f of hyperfields and a polynomial p over its source, the
roots of p that f sends to b number at most mult_b(f(p)) (Baker-Lorscheid).
With f = sign this is Descartes' rule of signs; with f = the p-adic
valuation it is the Newton polygon rule.  :func:`verify_pushforward` checks
the inequality through the two hooks of
:class:`~hyperpoly.instances.Homomorphism` and certifies equality when a hint
lists every root of a split polynomial.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import ratpoly
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

    Bounds come from ``hom.image_roots``; counts from ``hom.count_roots``
    when the hom has a counter, else from ``roots``.  A ``roots`` hint must
    list every root of p with multiplicity, so that it expands exactly to p
    in rational arithmetic; it then certifies the factorization, and the
    counter, the hint and the bounds must agree on every b.
    """
    if hom.image_roots is None:
        raise DomainError(f"{hom.rule}: no closed form for multiplicities "
                          f"over {hom.target.name}")
    if not isinstance(p.field, type(hom.source)):
        raise DomainError(f"{hom.rule} maps polynomials over {hom.source.name}")
    if p.is_zero():
        raise DomainError("cannot verify the zero polynomial")
    image = poly(hom.target, [hom(c).value for c in p.coeffs])
    bounds = hom.image_roots(image)
    counts = None
    if hom.count_roots is not None:
        counts = {b: n for b, n in hom.count_roots(p).items() if n}
    certified = roots is not None
    if certified:
        hint = [p.field.element(r) for r in roots]
        coeffs = list(p.values())
        if ratpoly.expand_roots([r.value for r in hint], coeffs[-1]) != coeffs:
            raise DomainError("split hint does not expand to the polynomial")
        hinted = dict(Counter(hom(r).value for r in hint))
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
        coeffs = ratpoly.expand_roots(roots, lead)
        yield poly(RATIONALS, coeffs), roots
