"""Newton polygons and tropical root multiplicities.

The lower convex hull of the finite coefficient points determines, slope by
slope, how many roots a tropical polynomial has at each value; this module
computes that polygon, factors tropical polynomials into linear parts, and
checks factorizations both combinatorially and as min-plus functions.  Its
root multiset is the closed form that ``padic_hom`` hands to
:mod:`hyperpoly.pushforward`, where it makes the Newton polygon rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import INF, DomainError, Element
from .instances import TROPICAL, TropicalHyperfield
from .polynomial import (
    MultReport,
    Poly,
    divides_with_quotient,
    poly,
)


def _t_add(x, y):
    if x is INF or y is INF:
        return INF
    return x + y


def _t_sub(x, y):
    if y is INF:
        raise DomainError("cannot divide by the tropical zero")
    if x is INF:
        return INF
    return x - y


def _value_of(s):
    if isinstance(s, Element):
        if not isinstance(s.field, TropicalHyperfield):
            raise DomainError(f"element {s!r} is not tropical")
        return s.value
    return TROPICAL.validate_value(s)


@dataclass(frozen=True)
class NewtonSegment:
    slope: Fraction  # the negative of the geometric slope
    length: int      # horizontal extent


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple     # ((i, c_i), ...) on the lower hull, left to right
    segments: tuple     # NewtonSegment, slope strictly decreasing
    inf_prefix: int     # leading coefficients equal to inf

    def nu(self, s) -> int:
        s = _value_of(s)
        if s is INF:
            return self.inf_prefix
        for seg in self.segments:
            if seg.slope == s:
                return seg.length
        return 0

    def plot_data(self) -> str:
        """One "x y" pair per vertex, blank line between segments."""
        blocks = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            blocks.append(f"{x0} {y0}\n{x1} {y1}")
        return "\n\n".join(blocks) + ("\n" if blocks else "")


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


def newton_polygon(p: Poly) -> NewtonPolygon:
    """Lower convex hull of the finite points (i, c_i) of a tropical polynomial.

    A leading block of inf coefficients is factored off first and reported as
    ``inf_prefix``; the hull is computed over the remaining finite points by
    a monotone chain with exact cross products.
    """
    if not isinstance(p.field, TropicalHyperfield):
        raise DomainError("newton_polygon expects a polynomial over T")
    if p.is_zero():
        raise DomainError("the zero polynomial (all-inf coefficients) has no polygon")
    values = p.values()
    points = [(i, v) for i, v in enumerate(values) if v is not INF]
    prefix = points[0][0]
    hull = []
    for pt in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    segments = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slope = Fraction(y1 - y0, x1 - x0)
        segments.append(NewtonSegment(-slope, x1 - x0))
    return NewtonPolygon(tuple(hull), tuple(segments), prefix)


def nu(p: Poly, s) -> int:
    """Horizontal length of the polygon segment of slope -s, else 0.

    For s = inf this is the order of the tropical zero element as a root,
    i.e. the length of the inf prefix.
    """
    return newton_polygon(p).nu(s)


@dataclass(frozen=True)
class TropicalRootMultiset:
    """The roots of a tropical polynomial, sorted ascending with inf last."""

    values: tuple

    @classmethod
    def of(cls, items) -> "TropicalRootMultiset":
        vals = sorted((_value_of(v) for v in items),
                      key=TROPICAL.sort_key)
        return cls(tuple(vals))

    def __len__(self) -> int:
        return len(self.values)

    def count(self, s) -> int:
        s = _value_of(s)
        return sum(1 for v in self.values if v == s or (v is INF and s is INF))

    def __repr__(self) -> str:
        return "{" + ", ".join(TROPICAL.format_value(v) for v in self.values) + "}"


def tropical_roots(p: Poly) -> TropicalRootMultiset:
    """Roots with multiplicity: each segment of slope -s contributes its
    horizontal length in copies of s, plus inf for the inf prefix."""
    npg = newton_polygon(p)
    vals = []
    for seg in reversed(npg.segments):
        vals.extend([seg.slope] * seg.length)
    vals.extend([INF] * npg.inf_prefix)
    return TropicalRootMultiset(tuple(vals))


def _root_values(roots) -> list:
    if isinstance(roots, TropicalRootMultiset):
        return sorted(roots.values, key=TROPICAL.sort_key)
    return sorted((_value_of(v) for v in roots), key=TROPICAL.sort_key)


def _prefix_sums(sorted_vals) -> list:
    sums = [Fraction(0)]
    for v in sorted_vals:
        sums.append(_t_add(sums[-1], v))
    return sums


def expand_roots(roots, lead=Fraction(0)) -> Poly:
    """The canonical polynomial with the given tropical roots.

    Coefficient c_{n-i} is the i-th tropical elementary symmetric value: the
    sum of the i smallest roots (sorting replaces enumerating all subsets).
    ``lead`` scales the result tropically; 0 keeps it monic.
    """
    vals = _root_values(roots)
    lead = _value_of(lead)
    sums = _prefix_sums(vals)
    n = len(vals)
    coeffs = [_t_add(sums[n - j], lead) for j in range(n + 1)]
    return poly(TROPICAL, coeffs)


def eval_function(p: Poly, b) -> Fraction:
    """The min-plus polynomial function: min over i of c_i + i*b."""
    if not isinstance(p.field, TropicalHyperfield):
        raise DomainError("eval_function expects a polynomial over T")
    if p.is_zero():
        raise DomainError("the zero polynomial has no function value")
    b = _value_of(b)
    if b is INF:
        raise DomainError("eval_function needs a finite argument")
    return min(v + i * b for i, v in enumerate(p.values()) if v is not INF)


def _roots_function_value(vals, b) -> Fraction:
    total = Fraction(0)
    for a in vals:
        total += b if (a is INF or b <= a) else a
    return total


def _check_monic_roots(p: Poly, roots) -> list:
    if not isinstance(p.field, TropicalHyperfield):
        raise DomainError("expected a polynomial over T")
    if p.is_zero():
        raise DomainError("the zero polynomial does not factor")
    vals = _root_values(roots)
    if len(vals) != p.degree:
        raise DomainError(f"expected {p.degree} roots, got {len(vals)}")
    if p.values()[-1] != Fraction(0):
        raise DomainError("a monic polynomial (leading coefficient 0) is required")
    return vals


def in_product(p: Poly, roots) -> bool:
    """Is p a member of the hyperproduct of the linear factors (T + a_i)?

    Coefficient c_{n-i} must lie in the hypersum of all i-fold root products.
    With roots sorted ascending that set is pinned by the i-th elementary
    symmetric value s_i: equality is forced exactly when the minimizing
    subset is unique (a_i < a_{i+1}, or i = n), otherwise any value >= s_i
    (inf included) is allowed, and an inf value of s_i forces c_{n-i} = inf.
    """
    vals = _check_monic_roots(p, roots)
    n = len(vals)
    sums = _prefix_sums(vals)
    c = p.values()
    for i in range(1, n + 1):
        coeff = c[n - i]
        target = sums[i]
        if target is INF:
            if coeff is not INF:
                return False
            continue
        unique = (i == n) or (vals[i - 1] < vals[i])
        if unique:
            if coeff != target:
                return False
        else:
            if not (coeff is INF or coeff >= target):
                return False
    return True


def functional_equiv(p: Poly, roots) -> bool:
    """Do p and the product of min(T, a_i) agree as min-plus functions?

    Both sides are concave piecewise-linear with integer slopes and the
    product side only bends at root values, so agreement at every distinct
    finite root, at midpoints of consecutive distinct roots, and one unit
    beyond each extreme pins every bounded linear piece (a concave function
    matching a chord at both ends and its midpoint lies on the chord).  The
    unbounded tails carry slope n on the left -- automatic for two monic
    degree-n sides -- and slope #inf-roots on the right, which is pinned
    exactly by comparing the inf-prefix length with the inf-root count.
    """
    vals = _check_monic_roots(p, roots)
    prefix = next(i for i, v in enumerate(p.values()) if v is not INF)
    n_inf = sum(1 for v in vals if v is INF)
    if prefix != n_inf:
        return False
    finite = sorted({v for v in vals if v is not INF})
    if not finite:
        samples = [Fraction(0), Fraction(1)]
    else:
        samples = list(finite)
        samples += [(a + b) / 2 for a, b in zip(finite, finite[1:])]
        samples += [finite[0] - 1, finite[-1] + 1]
    return all(eval_function(p, b) == _roots_function_value(vals, b)
               for b in samples)


def _divide_root(p_monic: Poly, a, sorted_roots) -> Poly:
    """One monic quotient q with p in (T + a) q, given p's full root multiset.

    High coefficients follow the usual synthetic-division minimum, low ones
    its mirror image, and the block spanned by the copies of ``a`` is bridged
    by elementary symmetric values of the smallest roots; the three ranges
    agree where they meet.
    """
    c = p_monic.values()
    n = len(c) - 1
    if a is INF:
        return Poly(TROPICAL, c[1:])
    k = sorted_roots.index(a) + 1
    m = sorted_roots.count(a)
    sums = _prefix_sums(sorted_roots)
    d = [None] * n
    d[n - 1] = Fraction(0)
    if k >= 2:
        for i in range(n - 2, n - k, -1):
            d[i] = min(c[i + 1], _t_add(d[i + 1], a))
    if k + m <= n:
        d[0] = _t_sub(c[0], a)
        for i in range(1, n - k - m + 1):
            d[i] = _t_sub(min(c[i], d[i - 1]), a)
    for i in range(n - k - m + 1, n - k + 1):
        if 0 <= i < n:
            d[i] = sums[n - i - 1]
    return poly(TROPICAL, d)


def mult_tropical(p: Poly, s) -> MultReport:
    """Multiplicity of a tropical value as a root: the polygon length at s.

    Also builds a replayable witness chain of successive quotients, each
    checked against the divisibility conditions directly; the recursion
    removes one copy of s from the root multiset per step.
    """
    F = p.field
    if not isinstance(F, TropicalHyperfield):
        raise DomainError("mult_tropical expects a polynomial over T")
    if p.is_zero():
        raise DomainError("multiplicity is undefined for the zero polynomial")
    s_val = _value_of(s)
    elem = Element(F, s_val)
    lead = p.values()[-1]
    mp = Poly(F, tuple(_t_sub(v, lead) for v in p.values()))
    roots = list(tropical_roots(mp).values)
    m = sum(1 for v in roots if v == s_val or (v is INF and s_val is INF))
    chain = []
    cur, cur_scaled, cur_roots = mp, p, list(roots)
    for _ in range(m):
        q = _divide_root(cur, s_val, cur_roots)
        q_scaled = Poly(F, tuple(_t_add(v, lead) for v in q.values()))
        if not divides_with_quotient(cur_scaled, elem, q_scaled):
            raise AssertionError("tropical witness quotient failed to divide")
        chain.append(q_scaled)
        cur_roots.remove(s_val)
        cur, cur_scaled = q, q_scaled
    return MultReport(elem, m, "newton-polygon", tuple(chain))


DEFAULT_TROPICAL_ROOT_POOL = (
    Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3),
    Fraction(1), Fraction(2), INF,
)


def random_root_multisets(count: int, seed: int = 0, max_size: int = 6,
                          pool: Sequence = DEFAULT_TROPICAL_ROOT_POOL):
    """Deterministic random tropical root multisets for round-trip checks."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, max_size)
        yield TropicalRootMultiset.of(rng.choice(pool) for _ in range(size))


def tropical_roundtrip_batch(count: int = 500, seed: int = 0) -> list:
    """(multiset, recovered multiset, in_product, functional_equiv) tuples."""
    out = []
    for ms in random_root_multisets(count, seed):
        p = expand_roots(ms)
        out.append((ms, tropical_roots(p), in_product(p, ms),
                    functional_equiv(p, ms)))
    return out
