"""The sign side of the pushforward inequality: sign changes give the
multiplicities of 1 and -1 over the sign hyperfield in closed form (its
``rule_roots``), and an exact Sturm counter gives the real roots of a
rational polynomial by sign (``sign_hom``'s ``count_roots``).  Both count
sign changes by one rule, ``ratpoly.variations``.  Under
:mod:`hyperpoly.pushforward` the two make Descartes' rule of signs."""

from __future__ import annotations

from . import ratpoly
from .core import DomainError
from .instances import RationalField, SignHyperfield
from .polynomial import Poly


def sign_changes(p: Poly) -> int:
    """Number of sign changes in the coefficients of a sign polynomial.

    Pairs of opposite nonzero coefficients separated only by zeros count
    once, which is the same as counting adjacent flips after dropping zeros.
    """
    if not isinstance(p.field, SignHyperfield):
        raise DomainError("sign_changes expects a polynomial over S")
    if p.is_zero():
        raise DomainError("sign_changes is undefined for the zero polynomial")
    return ratpoly.variations([v for v in p.values() if v != 0])


def substitute_neg(p: Poly) -> Poly:
    """p(-T): negate the odd-index coefficients."""
    F = p.field
    return Poly(F, tuple(F.neg_value(v) if i % 2 else v
                         for i, v in enumerate(p.values())))


def count_roots_by_sign(p: Poly) -> dict:
    """Real roots of a rational polynomial with multiplicity, keyed by sign.

    p, cleared once to a primitive integer polynomial, goes down a tower
    of primitive Sturm chains, one per multiplicity level.
    """
    if not isinstance(p.field, RationalField):
        raise DomainError("count_roots_by_sign expects a polynomial over Q")
    if p.is_zero():
        raise DomainError("root count is undefined for the zero polynomial")
    return ratpoly.count_roots_by_sign(list(p.values()))
