"""The closed-form ``P`` and ``T`` hypersums against the union arithmetic.

Every phase hypersum is the relative interior of one convex cone, and
``PhaseHyperfield`` computes it in closed form, as one open arc or a finite
set.  The reference below is the general union arithmetic the closed form
replaced, kept verbatim: a union of open arcs and points, put in a canonical
form by ``phase_canonical``, with ``x + c`` taken arc by arc and point by
point.  Both must agree on membership wherever an endpoint could go wrong,
and two sets must be equal exactly when the reference's sets are equal.
Every tropical hypersum is one value or one ray.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import INF, PHASE, TROPICAL, DomainError, FiniteSet, TropicalRay
from hyperpoly.core import HyperSet


@dataclass(frozen=True)
class PhaseUnion(HyperSet):
    """A union of open arcs and isolated points on the unit circle.

    Angles are exact rationals in units of pi, reduced to [0, 2).  An arc
    ``(lo, hi)`` means the open arc swept counterclockwise from ``lo`` to
    ``hi``; ``hi`` may exceed 2 when the arc wraps.  The stored form is
    canonical: arcs are pairwise disjoint, each shorter than pi, and points
    never sit inside an arc, so structural equality is set equality.
    """

    field: object
    has_zero: bool
    arcs: tuple  # ((lo, hi), ...) with 0 <= lo < 2 and lo < hi < lo + 1
    points: frozenset  # angles in [0, 2)

    def contains_value(self, q) -> bool:
        if q is None:
            return self.has_zero
        if q in self.points:
            return True
        return any(0 < (q - lo) % 2 < hi - lo for lo, hi in self.arcs)


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


def ref_hyperadd(x, y):
    if x is None:
        return FiniteSet(PHASE, frozenset({y}))
    if y is None:
        return FiniteSet(PHASE, frozenset({x}))
    if x == y:
        return FiniteSet(PHASE, frozenset({x}))
    d = (y - x) % 2
    if d == 1:
        return FiniteSet(PHASE, frozenset({None, x, y}))
    if d < 1:
        return phase_canonical(PHASE, False, [(x, x + d)], [])
    return phase_canonical(PHASE, False, [(y, y + (2 - d))], [])


def _pieces(s):
    """Decompose a hyperset into (has_zero, arcs, point angles)."""
    if isinstance(s, FiniteSet):
        return (None in s.values, [],
                [v for v in s.values if v is not None])
    if isinstance(s, PhaseUnion):
        return s.has_zero, list(s.arcs), list(s.points)
    raise DomainError("not a phase hyperset")


def ref_add_set(s, c):
    zero_in, arcs, pts = _pieces(s)
    if c is None:
        return s
    out_zero = False
    out_arcs = []
    out_pts = []
    if zero_in:
        out_pts.append(c)
    for q in pts:
        z, a, p = _pieces(ref_hyperadd(q, c))
        out_zero |= z
        out_arcs += a
        out_pts += p
    for lo, hi in arcs:
        z, a = _arc_plus_point(lo, hi, c)
        out_zero |= z
        out_arcs += a
    return phase_canonical(PHASE, out_zero, out_arcs, out_pts)


def ref_scale_set(a, s):
    zero_in, arcs, pts = _pieces(s)
    rotated = [(lo + a, hi + a) for lo, hi in arcs]
    return phase_canonical(PHASE, zero_in, rotated, [(q + a) % 2 for q in pts])


def ref_hypersum(values):
    acc = FiniteSet(PHASE, frozenset({None}))
    for v in values:
        acc = ref_add_set(acc, v)
    return acc


# -- phase: random folds ------------------------------------------------------

TWELFTHS = [Fraction(n, 12) for n in range(24)]
FIFTHS = [Fraction(1, 5), Fraction(3, 5), Fraction(6, 5), Fraction(9, 5)]
HALF_STEP = Fraction(1, 48)
STEPS = [Fraction(n, 24) for n in range(48)]


def probes(terms):
    """Every multiple of 1/24, each term +- 1/48, each term's antipode, zero."""
    angles = [q for q in terms if q is not None]
    return (STEPS + [(q + e) % 2 for q in angles for e in (HALF_STEP, -HALF_STEP)]
            + [(q + 1) % 2 for q in angles] + [None])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([None] + TWELFTHS + FIFTHS), min_size=1, max_size=6))
def test_phase_hypersum_matches_the_union_reference(terms):
    s, ref = PHASE.hypersum_values(terms), ref_hypersum(terms)
    for q in probes(terms):
        assert s.contains_value(q) == ref.contains_value(q), (terms, q, s, ref)


# -- phase: every sum and scaling over the grid ---------------------------------

# the sample grid plus the twelfths of the circle, multiples of pi/6
GRID = [None] + [Fraction(n, 6) for n in range(12)]
assert set(PHASE.sample_values()) <= set(GRID)


def test_phase_grid_sums_and_scalings_match_the_reference():
    """``(x+y)+c`` and ``c(x+y)`` for every triple of the grid: the same
    members at every multiple of 1/48 and zero, and the same equalities."""
    pairs = {(x, y): (PHASE.hyperadd_values(x, y), ref_hyperadd(x, y))
             for x, y in itertools.product(GRID, repeat=2)}
    zero = FiniteSet(PHASE, frozenset({None}))
    ops = ((PHASE.add_set_value, ref_add_set),
           # the reference fails on a zero factor; 0 * s is {0}
           (lambda s, c: PHASE.scale_set_value(c, s),
            lambda s, c: zero if c is None else ref_scale_set(c, s)))
    memo = {}
    seen = {}  # closed-form set -> its reference set
    for (s, ref), c in itertools.product(pairs.values(), GRID):
        assert seen.setdefault(s, ref) == ref, s
        for op, ref_op in ops:
            key = (ref_op, ref, c)
            if key not in memo:
                memo[key] = ref_op(ref, c)
            assert seen.setdefault(op(s, c), memo[key]) == memo[key], (s, c)
    # equal closed-form sets have equal reference sets; now the converse
    assert len(set(seen.values())) == len(seen)
    grid = [Fraction(n, 48) for n in range(96)] + [None]
    for s, ref in seen.items():
        assert [s.contains_value(q) for q in grid] == \
            [ref.contains_value(q) for q in grid], (s, ref)


# -- tropical -------------------------------------------------------------------

TROPICAL_POOL = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)] + [INF]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(TROPICAL_POOL), min_size=1, max_size=6))
def test_tropical_hypersum_is_a_value_or_a_ray(terms):
    finite = [v for v in terms if v is not INF]
    if not finite:
        expected = FiniteSet(TROPICAL, frozenset({INF}))
    elif finite.count(min(finite)) == 1:
        expected = FiniteSet(TROPICAL, frozenset({min(finite)}))
    else:
        expected = TropicalRay(TROPICAL, min(finite))
    assert TROPICAL.hypersum_values(terms) == expected


# -- sets no hypersum can be ---------------------------------------------------


@pytest.mark.parametrize("field, values", [
    (PHASE, {Fraction(0), Fraction(1, 2)}),
    (TROPICAL, {Fraction(0), Fraction(1)}),
], ids=["P", "T"])
def test_a_set_that_is_no_hypersum_is_rejected(field, values):
    with pytest.raises(DomainError, match="hypersum"):
        field.add_set_value(FiniteSet(field, frozenset(values)), field.one_value())
