"""Newton polygons and tropical root multiplicities.

The lower convex hull of the finite coefficient points determines, slope by
slope, how many roots a tropical polynomial has at each value; this module
computes that polygon, expands root lists into polynomials, and checks
factorizations both combinatorially and as min-plus functions.  The
polygon's :meth:`NewtonPolygon.roots` is the closed form behind ``T``'s
``rule_roots`` and ``rule_multiplicity``, so read multiplicities through
:func:`~hyperpoly.polynomial.roots` and
:func:`~hyperpoly.polynomial.multiplicity`; under ``padic_hom`` in
:mod:`hyperpoly.pushforward` they make the Newton polygon rule.  Values are
raw tropical values: rationals and ``INF``; a root list is any iterable of
them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .core import INF, DomainError, Element, FrozenRecord
from .instances import TROPICAL, TropicalHyperfield
from .polynomial import (
    MultReport,
    Poly,
    divides_with_quotient,
    poly,
)


class NewtonSegment(FrozenRecord):
    __slots__ = ("slope",   # the negative of the geometric slope
                 "length")  # horizontal extent

    def __init__(self, slope: Fraction, length: int):
        self._init(slope, length)


class NewtonPolygon(FrozenRecord):
    __slots__ = ("vertices",    # ((i, c_i), ...) on the lower hull, left to right
                 "segments",    # NewtonSegment, slope strictly decreasing
                 "inf_prefix")  # leading coefficients equal to inf

    def __init__(self, vertices: tuple, segments: tuple, inf_prefix: int):
        self._init(vertices, segments, inf_prefix)

    def roots(self) -> dict:
        """Root multiplicities by raw value, ascending with inf last: each
        segment of slope -s gives s its length, the inf prefix gives inf."""
        found = {seg.slope: seg.length for seg in reversed(self.segments)}
        if self.inf_prefix:
            found[INF] = self.inf_prefix
        return found

    def plot_data(self) -> str:
        """One "x y" pair per vertex, blank line between segments."""
        blocks = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            blocks.append(f"{x0} {y0}\n{x1} {y1}")
        return "\n\n".join(blocks) + ("\n" if blocks else "")


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


def newton_polygon(p: Poly) -> NewtonPolygon:
    """Lower convex hull of the finite points (i, c_i) of a tropical polynomial.

    A leading block of inf coefficients is factored off first and reported as
    ``inf_prefix``; the hull is computed over the remaining finite points by
    a monotone chain with integer cross products, on the values times their
    common denominator.
    """
    if not isinstance(p.field, TropicalHyperfield):
        raise DomainError("newton_polygon expects a polynomial over T")
    if p.is_zero():
        raise DomainError("the zero polynomial (all-inf coefficients) has no polygon")
    values = p.values()
    den = math.lcm(*(v.denominator for v in values if v is not INF))
    points = _cleared(values, den)
    hull = []
    for pt in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    segments = tuple(NewtonSegment(Fraction(y0 - y1, (x1 - x0) * den), x1 - x0)
                     for (x0, y0), (x1, y1) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple((i, values[i]) for i, _ in hull), segments,
                         points[0][0])


def _root_values(roots) -> list:
    return sorted(map(TROPICAL.validate_value, roots), key=TROPICAL.sort_key)


def _prefix_sums(sorted_vals) -> list:
    sums = [Fraction(0)]
    for v in sorted_vals:
        sums.append(TROPICAL.mul_values(sums[-1], v))
    return sums


def expand_roots(roots) -> Poly:
    """The monic polynomial with the given tropical roots.

    Coefficient c_{n-i} is the i-th tropical elementary symmetric value: the
    sum of the i smallest roots (sorting replaces enumerating all subsets).
    """
    return poly(TROPICAL, reversed(_prefix_sums(_root_values(roots))))


def _cleared(values, den) -> list:
    """(i, v * den) for each finite value v, whose denominator divides den."""
    return [(i, v.numerator * (den // v.denominator))
            for i, v in enumerate(values) if v is not INF]


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
    # one common denominator, doubled so that the midpoints stay integers
    den = 2 * math.lcm(*(v.denominator for v in (*p.values(), *vals) if v is not INF))
    terms = _cleared(p.values(), den)
    scaled = [a for _, a in _cleared(vals, den)]
    n_inf = len(vals) - len(scaled)
    if terms[0][0] != n_inf:  # the inf prefix against the inf roots
        return False
    finite = sorted(set(scaled))
    ends = [finite[0] - den, finite[-1] + den] if finite else [0, den]
    samples = finite + [(a + b) // 2 for a, b in zip(finite, finite[1:])] + ends
    return all(min(c + i * b for i, c in terms)
               == n_inf * b + sum(min(a, b) for a in scaled) for b in samples)


def _divide(c: tuple, a) -> tuple:
    """The quotient d with c in (T + a) d, for a finite root ``a`` of the raw
    coefficients c_0..c_n; d has one root ``a`` fewer.

    Two synthetic divisions, one from each end, and the larger value at
    each place: ``t_{n-1} = c_n``, ``t_{i-1} = min(c_i, a + t_i)``;
    ``b_0 = c_0 - a``, ``b_i = min(c_i, b_{i-1}) - a``; ``d_i = max(t_i, b_i)``.

    Proof: ``w_j = c_j + j*a`` attains its minimum ``M`` first at ``j0`` and
    last at ``j1 > j0``, as ``a`` is a root.  As ``t_i + (i+1)*a`` is
    ``min_{j>i} w_j`` and ``b_i + (i+1)*a`` is ``min_{j<=i} w_j``,
    ``d_i + (i+1)*a`` is ``min_{j<=i} w_j`` for ``i < j0``, ``M`` up to
    ``j1 - 1`` and ``min_{j>i} w_j`` from ``j1`` on.  So ``d_{n-1} = c_n``,
    ``c_0 = a + d_0``, and each middle ``c_i`` is the unique minimum of
    ``a + d_i`` and ``d_{i-1}`` or lies on the ray of a tie; the weights of
    d are least exactly on ``[j0, j1 - 1]``, a segment of slope ``-a`` one
    shorter.  ``inf`` passes through ``min`` and ``- a`` unchanged.
    """
    mul, n = TROPICAL.mul_values, len(c) - 1
    top, low = [c[n]] * n, [mul(c[0], -a)]
    for i in range(n - 1, 0, -1):
        top[i - 1] = min(c[i], mul(a, top[i]))
    for i in range(1, n):
        low.append(mul(min(c[i], low[-1]), -a))
    return tuple(map(max, top, low))


def mult_tropical(p: Poly, a: Element) -> MultReport:
    """Multiplicity of a finite ``a`` as a root, the polygon's length at
    a.value, with a witness chain of :func:`_divide` quotients, each checked
    by ``divides_with_quotient``.  ``rule_multiplicity`` calls this once
    ``multiplicity`` has checked ``a`` and answered the zero element."""
    m = newton_polygon(p).roots().get(a.value, 0)
    chain = [p]
    for _ in range(m):
        q = Poly(p.field, _divide(chain[-1].values(), a.value))
        if not divides_with_quotient(chain[-1], a, q):
            raise AssertionError("tropical witness quotient failed to divide")
        chain.append(q)
    return MultReport(a, m, "newton-polygon", tuple(chain[1:]))


TROPICAL_ROOT_POOL = (
    Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 3),
    Fraction(1), Fraction(2), INF,
)


def random_root_multisets(count: int, seed: int = 0):
    """Deterministic random tropical root lists for round-trip checks: sorted
    tuples of 1 to 6 raw values drawn from ``TROPICAL_ROOT_POOL``."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 6)
        yield tuple(_root_values(rng.choice(TROPICAL_ROOT_POOL) for _ in range(size)))
