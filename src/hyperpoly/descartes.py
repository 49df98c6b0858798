"""Sign-change counting, the sign-rule multiplicity shortcut, and the
Descartes verification harness: exact Sturm/Yun root counts of rational
polynomials against the sign-change bound of their sign image."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import ratpoly
from .core import DomainError
from .instances import RATIONALS, SIGN, RationalField, sign_map
from .polynomial import Poly, poly, poly_from_elements

DEFAULT_SPLIT_ROOT_POOL = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2),
)


def sign_changes(p: Poly) -> int:
    """Number of sign changes in the coefficients of a sign polynomial.

    Pairs of opposite nonzero coefficients separated only by zeros count
    once, which is the same as counting adjacent flips after dropping zeros.
    """
    if p.field is not SIGN:
        raise DomainError("sign_changes expects a polynomial over S")
    if p.is_zero():
        raise DomainError("sign_changes is undefined for the zero polynomial")
    seq = [c.value for c in p.coeffs if c.value != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def substitute_neg(p: Poly) -> Poly:
    """p(-T): negate the odd-index coefficients."""
    F = p.field
    flipped = [F.neg(c) if i % 2 else c for i, c in enumerate(p.coeffs)]
    return poly_from_elements(F, flipped)


def mult_one_direct(p: Poly) -> int:
    """Multiplicity of 1 over the sign hyperfield, read off as sign changes."""
    return sign_changes(p)


def mult_neg_one_direct(p: Poly) -> int:
    """Multiplicity of -1: sign changes of p(-T)."""
    return sign_changes(substitute_neg(p))


def sign_image(p: Poly) -> Poly:
    """Map a rational polynomial through the sign homomorphism."""
    if not isinstance(p.field, RationalField):
        raise DomainError("sign_image expects a polynomial over Q")
    return poly(SIGN, [sign_map(c.value).value for c in p.coeffs])


def descartes_bound(p: Poly) -> tuple[int, int]:
    """(bound on positive roots, bound on negative roots) via sign changes."""
    if p.is_zero():
        raise DomainError("bound is undefined for the zero polynomial")
    img = sign_image(p)
    return sign_changes(img), sign_changes(substitute_neg(img))


def _rat_coeffs(p: Poly) -> list:
    return [Fraction(c.value) for c in p.coeffs]


def count_positive_roots(p: Poly) -> int:
    """Positive real roots of a rational polynomial, with multiplicity.

    Roots at zero are factored out first; Yun's decomposition reduces to
    squarefree factors, and each factor's distinct positive roots are counted
    by a Sturm chain evaluated at the limits 0+ and +inf.
    """
    if not isinstance(p.field, RationalField):
        raise DomainError("count_positive_roots expects a polynomial over Q")
    if p.is_zero():
        raise DomainError("root count is undefined for the zero polynomial")
    coeffs = _rat_coeffs(p)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    total = 0
    for f, i in ratpoly.yun_squarefree(coeffs):
        total += i * ratpoly.count_distinct_positive_roots(f)
    return total


def count_negative_roots(p: Poly) -> int:
    if not isinstance(p.field, RationalField):
        raise DomainError("count_negative_roots expects a polynomial over Q")
    if p.is_zero():
        raise DomainError("root count is undefined for the zero polynomial")
    coeffs = _rat_coeffs(p)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    total = 0
    for f, i in ratpoly.yun_squarefree(coeffs):
        total += i * ratpoly.count_distinct_negative_roots(f)
    return total


def zero_root_order(p: Poly) -> int:
    coeffs = _rat_coeffs(p)
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    return k


@dataclass
class DescartesReport:
    poly: Poly
    bound_pos: int
    bound_neg: int
    positive_roots: int
    negative_roots: int
    split_certified: bool
    ok: bool

    def lines(self) -> list[str]:
        out = [
            f"poly={','.join(str(c) for c in _rat_coeffs(self.poly))}",
            f"bound_pos={self.bound_pos}",
            f"bound_neg={self.bound_neg}",
            f"positive_roots={self.positive_roots}",
            f"negative_roots={self.negative_roots}",
            f"split_certified={'yes' if self.split_certified else 'no'}",
            f"ok={'yes' if self.ok else 'no'}",
        ]
        return out


def verify_descartes(p: Poly, split_hint: Optional[Sequence] = None
                     ) -> DescartesReport:
    """Check the sign-change bound against the exact Sturm count.

    The count never exceeds the bound; when ``split_hint`` lists all roots of
    a full rational-linear factorization (verified by exact expansion), the
    bound is attained on both sides.
    """
    bound_pos, bound_neg = descartes_bound(p)
    pos = count_positive_roots(p)
    neg = count_negative_roots(p)
    certified = False
    if split_hint is not None:
        hint = [Fraction(r) for r in split_hint]
        coeffs = _rat_coeffs(p)
        expanded = ratpoly.expand_roots(hint, coeffs[-1])
        if expanded != coeffs:
            raise DomainError("split hint does not expand to the polynomial")
        certified = True
    ok = pos <= bound_pos and neg <= bound_neg
    if certified:
        ok = ok and pos == bound_pos and neg == bound_neg
    return DescartesReport(p, bound_pos, bound_neg, pos, neg, certified, ok)


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


def verify_descartes_batch(count: int = 200, seed: int = 0,
                           max_degree: int = 6,
                           root_pool: Sequence = DEFAULT_SPLIT_ROOT_POOL) -> list:
    """Run the split-polynomial equality check over a seeded corpus."""
    reports = []
    for p, roots in split_poly_corpus(count, seed, max_degree, root_pool):
        reports.append(verify_descartes(p, split_hint=roots))
    return reports
