"""The sign side of the pushforward inequality: sign changes give the
multiplicities of 1 and -1 over the sign hyperfield in closed form, and an
exact Yun/Sturm counter gives the real roots of a rational polynomial by
sign.  ``sign_hom`` carries both into :mod:`hyperpoly.pushforward`, where
they make Descartes' rule of signs."""

from __future__ import annotations

from . import ratpoly
from .core import DomainError
from .instances import SIGN, RationalField
from .polynomial import Poly


def sign_changes(p: Poly) -> int:
    """Number of sign changes in the coefficients of a sign polynomial.

    Pairs of opposite nonzero coefficients separated only by zeros count
    once, which is the same as counting adjacent flips after dropping zeros.
    """
    if p.field is not SIGN:
        raise DomainError("sign_changes expects a polynomial over S")
    if p.is_zero():
        raise DomainError("sign_changes is undefined for the zero polynomial")
    seq = [v for v in p.values() if v != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def substitute_neg(p: Poly) -> Poly:
    """p(-T): negate the odd-index coefficients."""
    F = p.field
    return Poly(F, tuple(F.neg_value(v) if i % 2 else v
                         for i, v in enumerate(p.values())))


def sign_roots(q: Poly) -> dict:
    """Nonzero multiplicities of 1, -1 and 0 as roots of a sign polynomial.

    The closed form of the sign rule: sign changes of q(T) and q(-T), and
    the order of q at zero.
    """
    zero_order = next(i for i, v in enumerate(q.values()) if v != 0)
    mults = {1: sign_changes(q), -1: sign_changes(substitute_neg(q)), 0: zero_order}
    return {b: m for b, m in mults.items() if m}


def count_roots_by_sign(p: Poly) -> dict:
    """Real roots of a rational polynomial with multiplicity, keyed by sign.

    One Yun decomposition reduces p to squarefree factors, and one Sturm
    chain per factor counts its negative, zero and positive roots.
    """
    if not isinstance(p.field, RationalField):
        raise DomainError("count_roots_by_sign expects a polynomial over Q")
    if p.is_zero():
        raise DomainError("root count is undefined for the zero polynomial")
    counts = {-1: 0, 0: 0, 1: 0}
    for f, i in ratpoly.yun_squarefree(list(p.values())):
        for s, n in ratpoly.count_distinct_roots_by_sign(f).items():
            counts[s] += i * n
    return counts
