"""Hyperfield core: elements, set-valued sums, the hyperfield base classes,
and ``check_axioms``, the entry point of the axiom checker in
:mod:`hyperpoly.axioms`, which loads on its first call.

A hyperfield is a field whose addition is multi-valued: ``a + b`` is a
nonempty subset of the carrier rather than a single element.  Everything
here is exact -- integers, :class:`fractions.Fraction`, a symbolic
infinity -- and immutable, so instances and values can be shared freely.
"""

from __future__ import annotations

import itertools
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
    Sums and products are read on raw values only.  :class:`Element` wraps
    values at the boundary (``element``, ``zero``, ``one``), and the public
    operations check membership once (``check_member``).
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

    def check_member(self, a: Element) -> None:
        if not isinstance(a, Element) or a.field is not self:
            raise DomainError(f"element {a!r} does not belong to {self.name}")

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
        carrier = frozenset(self._values)
        chain = itertools.chain.from_iterable

        def complete(table, flat):
            # n^2 keys, each a pair of carrier values, are every pair
            return (len(table) == len(carrier) ** 2 and set(map(len, table)) == {2}
                    and carrier.issuperset(chain(table))
                    and carrier.issuperset(flat(table.values())))

        # complete tables, each sum a frozenset, are copied as they are
        whole = (complete(mul_table, iter) and complete(add_table, chain)
                 and set(map(type, add_table.values())) == {frozenset})
        self.mul_table = dict(mul_table)
        self.add_table = dict(add_table) if whole else {
            k: frozenset(s) for k, s in add_table.items()}
        for table in () if whole else (self.add_table, self.mul_table):
            for (x, y), v in list(table.items()):  # the other orientation
                table.setdefault((y, x), v)
        if not {zero, one} <= carrier:
            raise DomainError(f"{name}: zero and one must lie in the carrier")
        for kind, table, flat in () if whole else (("product", self.mul_table, iter),
                                                   ("sum", self.add_table, chain)):
            # only an incomplete table builds the pair set, to name the least
            # pair it misses
            if complete(table, flat):
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


def check_axioms(F: Hyperfield):
    """Check the hypergroup and hyperfield axioms on ``F``; return an
    :class:`~hyperpoly.axioms.AxiomReport`.  The checker is
    :func:`hyperpoly.axioms.check_axioms`, loaded on the first call."""
    from . import axioms
    return axioms.check_axioms(F)
