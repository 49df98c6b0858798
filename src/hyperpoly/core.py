"""Hyperfield core: elements, set-valued sums, and the axiom checker.

A hyperfield is a field whose addition is multi-valued: ``a + b`` is a
nonempty subset of the carrier rather than a single element.  Everything
here is exact -- integers, :class:`fractions.Fraction`, a symbolic
infinity -- and immutable, so instances and values can be shared freely.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
from fractions import Fraction


class DomainError(ValueError):
    """An operation was applied outside its domain."""


class NonEnumerableError(DomainError):
    """The requested enumeration is infinite."""


class ParseError(ValueError):
    """A field spec, element, or polynomial string failed to parse."""


class _Infinity:
    """Symbolic infinity: the tropical additive-neutral value.

    Compares strictly above every rational and equals only itself, so it can
    live in sorted containers next to exact ``Fraction`` values without any
    floating point sneaking in.
    """

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()


class Record:
    """A mutable record without hash; its fields are its ``__slots__``."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self._astuple() == other._astuple()
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"


class FrozenRecord(Record):
    """A :class:`Record` whose fields are set once, by ``_init``, and hash as
    their tuple.  Hot records write out their constructor, ``==`` and hash."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


class Element(FrozenRecord):
    """A value tagged with the hyperfield instance it belongs to.

    Instances are identified by object, so an element of another instance is
    rejected even when the two share a name.  Public operations check
    membership once, at the boundary; the kernels behind them work on the
    raw values.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Hyperfield, value: object):
        _set_element_field(self, field)
        _set_element_value(self, value)

    def __eq__(self, other):
        return ((self.field, self.value) == (other.field, other.value)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __mul__(self, other: "Element") -> "Element":
        return self.field.mul(self, other)

    def __neg__(self) -> "Element":
        return self.field.neg(self)

    def __repr__(self) -> str:
        return f"{self.field.name}:{self.field.format_value(self.value)}"


class HyperSet(FrozenRecord):
    """Result of a hyperoperation: a subset of one hyperfield's carrier,
    tested one raw value at a time by :meth:`contains_value`."""

    __slots__ = ()
    field: Hyperfield

    def contains_value(self, v) -> bool:
        raise NotImplementedError


class FiniteSet(HyperSet):
    """A finite set of carrier values."""

    __slots__ = ("field", "values")

    def __init__(self, field: Hyperfield, values: frozenset):
        _set_set_field(self, field)
        _set_set_values(self, values)

    def __eq__(self, other):
        return ((self.field, self.values) == (other.field, other.values)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.field, self.values))

    def contains_value(self, v) -> bool:
        return v in self.values

    def __repr__(self) -> str:
        inner = ", ".join(self.field.format_value(v)
                          for v in sorted(self.values, key=self.field.sort_key))
        return "{" + inner + "}"


# the slot setters of the hot records, which bypass the frozen __setattr__
_set_element_field, _set_element_value = Element.field.__set__, Element.value.__set__
_set_set_field, _set_set_values = FiniteSet.field.__set__, FiniteSet.values.__set__


class TropicalRay(HyperSet):
    """The tropical set ``{x : x >= lower} ∪ {inf}``."""

    __slots__ = ("field", "lower")

    def __init__(self, field: Hyperfield, lower: Fraction):
        self._init(field, lower)

    def contains_value(self, v) -> bool:
        return v is INF or v >= self.lower

    def __repr__(self) -> str:
        return f"[{self.lower}, inf]"


class PhaseArc(HyperSet):
    """The open arc ``lo < q < lo + length`` of phase angles, in units of pi.

    ``0 <= lo < 2`` and ``0 < length <= 1``; ``length`` 2 with ``lo`` 0
    stands for every angle together with zero.  Points, antipodal triples
    and ``{0}`` are :class:`FiniteSet` values, so each set has exactly one
    representation and ``==`` is set equality.
    """

    __slots__ = ("field", "lo", "length")

    def __init__(self, field: Hyperfield, lo: Fraction, length: Fraction):
        self._init(field, lo, length)

    def contains_value(self, q) -> bool:
        if self.length == 2:
            return True
        return q is not None and 0 < (q - self.lo) % 2 < self.length

    def __repr__(self) -> str:
        if self.length == 2:
            return "{zero, every angle}"
        return f"({self.lo},{(self.lo + self.length) % 2})"


class Hyperfield:
    """Base class for hyperfield instances.

    Subclasses provide the carrier conventions and the raw-value operations,
    sums included; the base class supplies the generic recursive hypersum.
    Sums are read on raw values only.  :class:`Element` wraps values at the
    boundary (``element``, ``mul``, ``neg``), which checks membership once.
    Instances compare by object identity.
    """

    name: str
    # whether every hypersum of elements is a finite, enumerable set
    enumerable_sums = True

    # -- carrier ----------------------------------------------------------

    def is_finite(self) -> bool:
        raise NotImplementedError

    def carrier_values(self) -> list:
        """All raw values, for finite instances only."""
        raise NonEnumerableError(f"{self.name} has an infinite carrier")

    def sample_values(self) -> list:
        """Deterministic grid used by the axiom checker on infinite carriers."""
        return self.carrier_values()

    def zero_value(self):
        raise NotImplementedError

    def one_value(self):
        raise NotImplementedError

    def validate_value(self, v):
        """Return the canonical form of ``v`` or raise :class:`DomainError`."""
        raise NotImplementedError

    # -- raw-value operations ---------------------------------------------

    def mul_values(self, x, y):
        raise NotImplementedError

    def neg_value(self, x):
        raise NotImplementedError

    def inv_value(self, x):
        raise NotImplementedError

    def hyperadd_values(self, x, y) -> HyperSet:
        raise NotImplementedError

    def hyperadd_raw(self, x, y) -> frozenset:
        """The values of a finite ``x + y``, for enumerable sums only."""
        return self.hyperadd_values(x, y).values

    def add_set_value(self, s: HyperSet, c) -> HyperSet:
        """Union of ``x + c`` over ``x`` in ``s``; default needs ``s`` finite."""
        if not isinstance(s, FiniteSet):
            raise NonEnumerableError(f"{self.name}: cannot union over {s!r}")
        values = set()
        for x in s.values:
            r = self.hyperadd_values(x, c)
            if not isinstance(r, FiniteSet):
                raise DomainError(f"{self.name}: cannot union infinite summands")
            values |= r.values
        return FiniteSet(self, frozenset(values))

    def hypersum_values(self, values) -> HyperSet:
        """n-ary hypersum of raw values, folded through :meth:`add_set_value`.

        The empty sum is ``{0}``.  Associativity of the binary operation
        makes the result independent of the term order.
        """
        acc: HyperSet = FiniteSet(self, frozenset({self.zero_value()}))
        for v in values:
            acc = self.add_set_value(acc, v)
        return acc

    def scale_set_value(self, a, s: HyperSet) -> HyperSet:
        """The set ``a * s``: ``{0}`` for ``a = 0``, else elementwise, which
        by default needs ``s`` finite."""
        if a == self.zero_value():
            return FiniteSet(self, frozenset({a}))
        if not isinstance(s, FiniteSet):
            raise NonEnumerableError(f"{self.name}: cannot scale {s!r}")
        return FiniteSet(self, frozenset(self.mul_values(a, x)
                                         for x in s.values))

    # -- presentation -------------------------------------------------------

    def format_value(self, v) -> str:
        return str(v)

    def parse_value(self, text: str):
        raise NotImplementedError

    def sort_key(self, v):
        return v

    # -- element-level API --------------------------------------------------

    def element(self, v) -> Element:
        return Element(self, self.validate_value(v))

    def zero(self) -> Element:
        return Element(self, self.zero_value())

    def one(self) -> Element:
        return Element(self, self.one_value())

    def elements(self) -> list[Element]:
        return [Element(self, v) for v in self.carrier_values()]

    def check_member(self, a: Element) -> None:
        if not isinstance(a, Element) or a.field is not self:
            raise DomainError(f"element {a!r} does not belong to {self.name}")

    def mul(self, a: Element, b: Element) -> Element:
        self.check_member(a)
        self.check_member(b)
        return Element(self, self.mul_values(a.value, b.value))

    def neg(self, a: Element) -> Element:
        self.check_member(a)
        return Element(self, self.neg_value(a.value))

    # -- root multiplicities ------------------------------------------------

    def rule_multiplicity(self, p, a):
        """The multiplicity report of a nonzero ``a`` as a root of ``p`` by a
        closed-form rule of this instance, or None to search quotients."""
        return None

    def rule_roots(self, p):
        """``p``'s nonzero root multiplicities by raw value in closed form, or None."""
        return None

    def __repr__(self):
        return f"<hyperfield {self.name}>"


class FiniteHyperfield(Hyperfield):
    """A hyperfield given by explicit multiplication and hyperaddition tables.

    ``add_table`` maps ordered pairs of values to frozensets of values and
    ``mul_table`` maps them to values; in both, one orientation of each pair
    is enough, and the other is filled in by commutativity.  A pair of
    carrier values without an entry, or with one outside the carrier, raises
    DomainError.  The tables stay public, for broken variants in tests.
    """

    def __init__(self, name, values, zero, one, mul_table, add_table):
        self.name = name
        self._values = list(values)
        self._zero = zero
        self._one = one
        self.mul_table = dict(mul_table)
        self.add_table = {}
        for (x, y), s in add_table.items():
            fs = frozenset(s)
            self.add_table[(x, y)] = fs
            self.add_table.setdefault((y, x), fs)
        for (x, y), v in list(self.mul_table.items()):
            self.mul_table.setdefault((y, x), v)
        carrier = frozenset(self._values)
        if not {zero, one} <= carrier:
            raise DomainError(f"{name}: zero and one must lie in the carrier")
        chain = itertools.chain.from_iterable
        for kind, table, flat in (("product", self.mul_table, iter),
                                  ("sum", self.add_table, chain)):
            # n^2 keys, each a pair of carrier values, are every pair; only a
            # table that fails the count builds the pair set, to name the
            # least pair it misses
            if (len(table) == len(carrier) ** 2 and carrier.issuperset(chain(table))
                    and carrier.issuperset(flat(table.values()))):
                continue
            bad = (set(itertools.product(carrier, repeat=2)).difference(table)
                   | {k for k, v in table.items() if not carrier.issuperset(flat([v]))})
            if bad:
                x, y = min(bad, key=lambda k: (self.sort_key(k[0]), self.sort_key(k[1])))
                raise DomainError(f"{name}: no {kind} of {x!r} and {y!r} in the carrier")
        self._neg_cache = {}

    def is_finite(self) -> bool:
        return True

    def carrier_values(self) -> list:
        return list(self._values)

    def zero_value(self):
        return self._zero

    def one_value(self):
        return self._one

    def validate_value(self, v):
        if v in self._values:
            return v
        raise DomainError(f"{v!r} is not an element of {self.name}")

    def mul_values(self, x, y):
        return self.mul_table[(x, y)]

    def neg_value(self, x):
        # HG2: the unique y with 0 in x + y.
        hit = self._neg_cache.get(x)
        if hit is not None:
            return hit
        candidates = [y for y in self._values
                      if self._zero in self.add_table[(x, y)]]
        if len(candidates) != 1:
            raise DomainError(f"{self.name}: no unique hyperinverse for {x!r}")
        self._neg_cache[x] = candidates[0]
        return candidates[0]

    def inv_value(self, x):
        for y in self._values:
            if y != self._zero and self.mul_table[(x, y)] == self._one:
                return y
        raise DomainError(f"{self.name}: {x!r} has no multiplicative inverse")

    def hyperadd_raw(self, x, y) -> frozenset:
        return self.add_table[(x, y)]

    def hyperadd_values(self, x, y) -> HyperSet:
        # no cache of FiniteSets: each holds the instance, and the cycle
        # would keep the instance alive until a full gc pass
        return FiniteSet(self, self.hyperadd_raw(x, y))

    def add_set_value(self, s: HyperSet, c) -> HyperSet:
        # singleton unions collapse to a table lookup
        if isinstance(s, FiniteSet) and len(s.values) == 1:
            (x,) = s.values
            return self.hyperadd_values(x, c)
        return super().add_set_value(s, c)

    def parse_value(self, text: str):
        text = text.strip()
        try:
            v = int(text)
        except ValueError:
            raise ParseError(f"{self.name}: cannot parse element {text!r}") from None
        try:
            return self.validate_value(v)
        except DomainError as exc:
            raise ParseError(str(exc)) from None


# -- axiom checking -----------------------------------------------------------


def unit_powers(F: Hyperfield) -> list | None:
    """The powers ``[1, g, g^2, ..., g^(n-1)]`` of a generator ``g`` of the
    ``n`` units of a finite ``F``, so that ``g^k`` has discrete log ``k``.

    Returns None when no unit has ``n`` distinct nonzero powers ending in
    ``g^n = 1``.  Each candidate costs at most ``n + 1`` products, so the
    search is O(n^2) and halts on any table, group or not.
    """
    zero, one = F.zero_value(), F.one_value()
    units = [v for v in F.carrier_values() if v != zero]
    for g in units:
        powers, seen, acc = [one], {one}, g
        while acc != zero and acc not in seen:
            powers.append(acc)
            seen.add(acc)
            acc = F.mul_values(acc, g)
        if acc == one and len(powers) == len(units):
            return powers
    return None


class AxiomCheck(Record):
    __slots__ = ("axiom", "passed", "witness")

    def __init__(self, axiom: str, passed: bool, witness: str | None = None):
        self.axiom, self.passed, self.witness = axiom, passed, witness


class AxiomReport(Record):
    __slots__ = ("field_name", "exhaustive", "checks", "notes")

    def __init__(self, field_name: str, exhaustive: bool, checks: list, notes: list):
        self.field_name, self.exhaustive, self.checks, self.notes = (
            field_name, exhaustive, checks, notes)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        scope = "exhaustive" if self.exhaustive else "sampled"
        out = [f"axioms {self.field_name} ({scope})"]
        for c in self.checks:
            line = f"  {c.axiom}: {'pass' if c.passed else 'FAIL'}"
            if c.witness:
                line += f"  [{c.witness}]"
            out.append(line)
        for n in self.notes:
            out.append(f"  note: {n}")
        return out


_AXIOMS = ("multiplicative group", "nonempty", "commutativity", "associativity",
          "neutral element", "unique inverse", "reversibility", "zero absorbs",
          "distributivity")

AXIOM_CARRIER_LIMIT = 1 << 10  # the largest finite carrier check_axioms enumerates


def _orbit_exponents(m: int):
    """One pair ``(i, j)``, ``0 <= i <= j < m``, per orbit of the multisets
    ``{0, i, j}`` of exponents mod ``m`` under adding a constant.

    Going round the cycle from ``0``, the multiset leaves the gaps
    ``(i, j - i, m - j)``.  Shifting it so that ``i`` or ``j`` becomes ``0``
    rotates the gaps, so each orbit is one cyclic order of gaps, and the pair
    kept is the one whose gaps are the least rotation.
    """
    for d1 in range(m // 3 + 1):  # the least gap comes first
        for d2 in range(d1, m - 2 * d1 + 1):
            d3 = m - d1 - d2
            if d3 > d1 or d2 == d1:  # (d1, d2, d1) is above (d1, d1, d2)
                yield d1, d1 + d2


def check_axioms(F: Hyperfield) -> AxiomReport:
    """Check the hypergroup and hyperfield axioms on ``F``.

    Infinite instances are checked on their fixed deterministic sample grid,
    which hits every rule branch of the instances shipped here, over every
    pair and triple.  Each check reports a counterexample on failure.

    Finite carriers are checked up to symmetry.  A check runs on its reduced
    domain below once the checks its proof rests on have passed, and on
    every pair or triple otherwise, so each verdict is the full check's.
    Some reduced checks first run a faster test that proves them; when that
    test fails, the reduced check runs to name its first counterexample.
    That costs O(n^2) table lookups, about 2.7·n^2 sums read when every
    premise holds, or O(n^3) for a table that fails a premise; a carrier
    above ``AXIOM_CARRIER_LIMIT`` raises DomainError.  Finite sums are read
    raw through ``hyperadd_raw`` and kept nowhere, so the checks allocate
    O(n) memory: the rows of fixed elements are read once per call, and the
    group check one row at a time.  ``associativity`` compares
    ``a+(b+c)``, the union of ``a+x`` over ``x`` in ``b+c``, with
    ``(a+b)+c``; the grid reads ``(b+c)+a`` instead, which is the same as
    sums there commute by definition.

    - ``multiplicative group``: :func:`unit_powers` finds a generator ``g``
      of the units and the discrete log of each unit, and every product
      ``x*y`` is compared with ``g^(log x + log y)``, a row at a time: the
      row of ``x`` in the order of the powers is the powers turned by
      ``log x``.  Passing proves the units a cyclic group: associative,
      commutative, with inverses.  With no generator, the group laws are
      checked directly, in cubic time, and a note says the unit group is
      not cyclic.
    - ``distributivity`` is checked for ``a = g`` only, once the group,
      ``zero absorbs`` and ``neutral element`` pass and ``g`` exists (a
      non-cyclic unit group keeps every scalar); ``x -> gx`` is read once.
      If ``x`` and ``y`` distribute, so does ``xy``:
      ``xy(b+c) = x(yb + yc) = xyb + xyc``, by associativity of the units
      and ``x*0 = 0``.  So by induction every power of ``g`` distributes,
      and those are all the units.  ``a = 0`` gives ``{0}`` on both sides,
      since ``0*b = 0`` and ``0 + 0 = {0}``.
    - ``nonempty``, ``commutativity`` and ``unique inverse`` read the rows
      of ``0`` and ``1`` only, once the group, ``zero absorbs`` and
      ``distributivity`` pass.  For a unit ``b``, ``b+c = b(1 + c/b)`` and
      ``c+b = b(c/b + 1)``, and scaling by ``b`` is a bijection of the
      carrier that fixes ``0``.  So ``b+c`` is empty, differs from ``c+b``
      or holds ``0`` iff ``1+c/b`` does, and ``x -> bx`` maps the inverses
      of ``1`` onto those of ``b``.
    - ``associativity`` is checked with first argument ``1`` only, once
      those three and ``commutativity`` pass, and ``reversibility`` once
      the group, ``distributivity`` and ``neutral element`` pass.  With
      commutativity proved, ``a+(b+c) = (b+c)+a``, so the two forms of
      associativity agree: the proof below is for ``(b+c)+a``.  For a
      unit ``a``, put ``b = ab'`` and ``c = ac'``: distributivity gives
      ``b+c = a(b'+c')`` and ``s+a = a(s'+1)``, and scaling by ``a`` is a
      bijection of the carrier, so each side of ``(b+c)+a = (a+b)+c`` is
      ``a`` times that of ``(b'+c')+1 = (1+b')+c'``, ``a`` lies in ``b+c``
      iff ``1`` lies in ``b'+c'``, and ``-(ax) = a(-x)`` (``0`` lies in
      ``a(x + -x) = ax + a(-x)``), so ``-b in -a+c`` iff ``-b' in -1+c'``.
      At ``a = 0``, ``(x+y)+z`` is unchanged by swapping ``x`` and ``y``
      and by moving a unit ``z`` to the front, which reaches every order
      of a triple that holds a unit; in reversibility ``-0 = 0`` and
      ``0+c = {c}``, so both sides say ``c = -b``.
    - Reversibility needs neither unique inverses nor ``zero absorbs``:
      either domain reads ``-b`` for every ``b``, and ``neg_value`` raises
      DomainError unless ``b`` has one inverse (on a table; ``Fp:<p>`` has
      unique inverses).  Distributivity on ``0+c = {c}`` gives
      ``a*0 + v = {v}`` for units ``a``, ``v``; were ``y = a*0`` a unit,
      scaling by ``1/y`` would give ``1+v = {v}``, so ``-1 = 0``, and the
      check fails at ``b = c = 1``; so ``a*0 = 0``.
    - With ``g``, and with ``commutativity`` proved too, both checks over
      triples first test one multiset per scaling orbit.  Put
      ``S(x, y, z) = (x+y)+z`` and ``R(x, y, z) = [-x in y+z]``.
      Commutativity makes ``S`` symmetric in ``x, y`` and ``R`` in
      ``y, z``.  Associativity says ``S(x, y, z) = S(y, z, x)``, and
      reversibility ``R(-a, b, c) = R(b, -a, c)``; so each holds iff its
      function takes one value on all orders of each multiset
      ``{x, y, z}``.  ``S(ux, uy, uz) = u S(x, y, z)`` for a unit ``u``, as
      above, and ``R(ux, uy, uz) = R(x, y, z)``, as ``-(ux) = u(-x)``.
      Every multiset that holds a unit is a unit times one that holds
      ``1``: ``{1, 0, c}`` for some ``c``, or ``{1, g^i, g^j}`` for the
      ``(i, j)`` of :func:`_orbit_exponents`; ``{0, 0, 0}`` has one order.
      On ``{1, b, c}``, associativity compares ``(b+c)+1``, ``(1+b)+c``
      and ``(1+c)+b``, the scan's triples ``(1, b, c)`` and ``(1, c, b)``.
      Reversibility compares ``R`` on the orders of ``-{1, b, c}``: with
      ``b' = -b`` and ``c' = -c``, whether ``1`` lies in ``b'+c'``, ``-b'``
      in ``-1+c'`` and ``-c'`` in ``-1+b'``, the scan's triples
      ``(1, b', c')`` and ``(1, c', b')``.  So the scan fails wherever an
      orbit does.  Reversibility's orbits also need every element to have
      its inverse, and fall back to the scan otherwise.  Then ``-x`` is the
      one ``y`` with ``0`` in ``x+y``, so ``-(-x) = x`` by commutativity,
      and ``a*0`` is no unit: else ``1+v = {v}`` for every unit ``v``, as
      above, and ``1+0 = {1}``, so ``1`` has no inverse.
    """
    exhaustive = F.is_finite()
    vals = F.carrier_values() if exhaustive else F.sample_values()
    if exhaustive and len(vals) > AXIOM_CARRIER_LIMIT:
        raise DomainError(f"axioms over {F.name}: {len(vals)} elements, "
                          f"{len(vals) ** 2} pairs, more than the carrier limit "
                          f"{AXIOM_CARRIER_LIMIT}")
    zero, one = F.zero_value(), F.one_value()
    units = [v for v in vals if v != zero]
    fmt = F.format_value
    notes = []
    powers = unit_powers(F) if exhaustive else None
    g = powers[1 % len(powers)] if powers else None
    negs = {}  # -x for every x that has one inverse
    for x in vals:
        with contextlib.suppress(DomainError):
            negs[x] = F.neg_value(x)
    results = {}
    # the checks read sums through add, add_left (a + s, the union of a + x
    # over x in s), add_right (s + c), scale, has (membership) and lift (a
    # finite set of values as a sum)
    if exhaustive:  # raw frozensets, read afresh: no pair cache
        add, has, lift = F.hyperadd_raw, operator.contains, frozenset

        def add_left(a, s):
            return frozenset().union(*[add(a, x) for x in s])

        def add_right(s, c):
            return frozenset().union(*[add(x, c) for x in s])

        def scale(a, s, ax):  # a * s, with ax the row x -> a*x
            return frozenset({zero}) if a == zero else frozenset(
                map(ax.__getitem__, s))

        def row(a):  # a + x for every x, read once
            return {x: add(a, x) for x in vals}
    else:  # rays and arcs need the HyperSet methods; each sum is kept
        add = functools.cache(F.hyperadd_values)
        add_right = F.add_set_value

        def add_left(a, s):  # the grid instances' sums commute by definition
            return F.add_set_value(s, a)

        def scale(a, s, ax):  # s may hold values off the grid
            return F.scale_set_value(a, s)

        def has(s, v):
            return s.contains_value(v)

        def lift(values):
            return FiniteSet(F, frozenset(values))

    def run(axiom, gen, proof=None):
        # a proof that passes proves the check; otherwise gen yields its
        # counterexamples in order
        witness = None if proof and proof() else next(gen, None)
        results[axiom] = AxiomCheck(axiom, witness is None, witness)

    def gen_group():
        if powers is not None:
            n = len(powers)
            log = {v: k for k, v in enumerate(powers)}
            for x in units:
                k = log[x]
                if [F.mul_values(x, y) for y in powers] == powers[k:] + powers[:k]:
                    continue
                for y in units:
                    xy, xy_log = F.mul_values(x, y), (k + log[y]) % n
                    if xy != powers[xy_log]:
                        yield (f"g={fmt(g)}, x={fmt(x)}, y={fmt(y)}: "
                               f"x*y = {fmt(xy)}, g^{xy_log} = {fmt(powers[xy_log])}")
            return
        for x in units:
            if F.mul_values(one, x) != x:
                yield f"x={fmt(x)}: 1*x = {fmt(F.mul_values(one, x))}"
            try:
                inverse = F.mul_values(x, F.inv_value(x)) == one
            except DomainError:
                inverse = False
            if not inverse:
                yield f"x={fmt(x)}: no multiplicative inverse"
        for x, y in itertools.product(units, repeat=2):
            xy = F.mul_values(x, y)
            if xy == zero or xy != F.mul_values(y, x):
                yield f"x={fmt(x)}, y={fmt(y)}: x*y = {fmt(xy)}"
        for x, y, z in itertools.product(units, repeat=3):
            if (F.mul_values(F.mul_values(x, y), z)
                    != F.mul_values(x, F.mul_values(y, z))):
                yield f"x={fmt(x)}, y={fmt(y)}, z={fmt(z)}: (xy)z != x(yz)"
        if exhaustive:
            notes.append("the unit group is not cyclic")

    def proved(*axioms):
        return exhaustive and all(results[a].passed for a in axioms)

    def gen_nonempty(rows):
        for a, b in itertools.product(rows, vals):
            if add(a, b) == lift(()):
                yield f"a={fmt(a)}, b={fmt(b)}: empty hypersum"

    def gen_commutative(rows):
        for a, b in itertools.product(rows, vals):
            if add(a, b) != add(b, a):
                yield f"a={fmt(a)}, b={fmt(b)}"

    def gen_associative(firsts):
        for a, b, c in itertools.product(firsts, vals, vals):
            if add_left(a, add(b, c)) != add_right(add(a, b), c):
                yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    def gen_neutral():
        for a in vals:
            s = add(zero, a)
            if s != lift({a}):
                yield f"a={fmt(a)}: 0+a = {FiniteSet(F, s) if exhaustive else s!r}"

    def gen_inverse(rows):
        for a in rows:
            if a not in negs:
                yield f"a={fmt(a)}: no hyperinverse"
                return
            na = negs[a]
            if not has(add(a, na), zero):
                yield f"a={fmt(a)}: 0 not in a+(-a)"
                return
            others = [x for x in vals if x != na and has(add(a, x), zero)]
            if others:
                yield f"a={fmt(a)}: second inverse {fmt(others[0])}"

    def gen_reversible(firsts):
        for a, b, c in itertools.product(firsts, vals, vals):
            if a not in negs or b not in negs:
                yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}: hyperinverse undefined"
                return
            if has(add(b, c), a) != has(add(negs[a], c), negs[b]):
                yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    def gen_zero_absorbs():
        for a in vals:
            if F.mul_values(zero, a) != zero or F.mul_values(a, zero) != zero:
                yield f"a={fmt(a)}"

    def gen_distributive(scalars):
        for a in scalars:
            ax = {x: F.mul_values(a, x) for x in vals}  # read once per scalar
            for b, c in itertools.product(vals, vals):
                if scale(a, add(b, c), ax) != add(ax[b], ax[c]):
                    yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    # the proofs of the finite checks over triples: one multiset {1, b, c}
    # per scaling orbit
    def orbits():
        yield from ((zero, c) for c in vals)
        for i, j in _orbit_exponents(len(powers)):
            yield powers[i], powers[j]

    def associative_on_orbits():
        r1 = row(one)
        return all(frozenset().union(*[r1[x] for x in add(b, c)])
                   == add_right(r1[b], c) == add_right(r1[c], b)
                   for b, c in orbits())

    def reversible_on_orbits():
        r = row(negs[one])
        return all((one in add(negs[b], negs[c])) == (b in r[negs[c]]) == (c in r[negs[b]])
                   for b, c in orbits())

    # premises first, each domain reduced only once they pass; the report
    # lists the checks in _AXIOMS order
    run("multiplicative group", gen_group())
    run("zero absorbs", gen_zero_absorbs())
    run("neutral element", gen_neutral())
    premises = ("multiplicative group", "zero absorbs")
    cyclic = powers is not None
    at_g = cyclic and proved(*premises, "neutral element")
    run("distributivity", gen_distributive([g] if at_g else vals))
    premises += ("distributivity",)
    rows = [zero, one] if proved(*premises) else vals
    run("nonempty", gen_nonempty(rows))
    run("commutativity", gen_commutative(rows))
    run("unique inverse", gen_inverse(rows))
    associative = premises + ("commutativity",)
    run("associativity", gen_associative([one] if proved(*associative) else vals),
        associative_on_orbits if cyclic and proved(*associative) else None)
    reversible = ("multiplicative group", "distributivity", "neutral element")
    run("reversibility", gen_reversible([one] if proved(*reversible) else vals),
        reversible_on_orbits if cyclic and len(negs) == len(vals)
        and proved(*reversible, "commutativity") else None)

    notes += getattr(F, "axiom_notes", ())
    return AxiomReport(F.name, exhaustive, [results[a] for a in _AXIOMS], notes)
