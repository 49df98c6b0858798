"""The hyperfield axiom checker behind :func:`hyperpoly.core.check_axioms`.

That entry point loads this module on its first call, so a process that
checks no axioms, such as every CLI verb but ``axioms``, never compiles it.
"""

from __future__ import annotations

import contextlib
import itertools
import operator

from .core import DomainError, FiniteSet, Hyperfield, Record


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
    pair and triple or multiset (below); a failed check names a counterexample.

    Finite carriers are checked up to symmetry.  A check runs on its reduced
    domain below once the checks its proof rests on have passed, and on
    every pair or triple otherwise, so each verdict is the full check's.
    Some reduced checks first run a faster test that proves them; when that
    test fails, the reduced check runs to name its first counterexample.
    That costs O(n^2) table lookups, about 2·n^2 sums read when every
    premise holds, or O(n^3) for a table that fails a premise; a carrier
    above ``AXIOM_CARRIER_LIMIT`` raises DomainError.  Finite sums are read
    raw through ``hyperadd_raw`` and kept nowhere, so once the units form a
    cyclic group the checks allocate O(n) memory: the rows of fixed
    elements are read once per call, the group check one row at a time and
    distributivity one cycle at a time.
    ``associativity`` compares ``a+(b+c)``, the union of ``a+x`` over ``x``
    in ``b+c``, with ``(a+b)+c``; the grid reads ``(b+c)+a`` instead, which
    is the same as sums there commute by definition.

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
      since ``0*b = 0`` and ``0 + 0 = {0}``.  At ``g`` a proof first walks
      the cycles of ``(b, c) -> (gb, gc)`` through ``(0, 0)``, ``(1, 0)``,
      ``(0, 1)`` and each ``(1, g^d)``, which hold every pair once, reading
      each sum once: each step, the closing one too, compares the next sum
      with ``g`` times this one, by size and by ``issuperset``, as
      ``x -> gx`` is one to one.  If a step fails, the scan names a witness.
    - ``nonempty``, ``commutativity`` and ``unique inverse`` read the rows
      of ``0`` and ``1`` only, once the group, ``zero absorbs`` and
      ``distributivity`` pass.  For a unit ``b``, ``b+c = b(1 + c/b)`` and
      ``c+b = b(c/b + 1)``, and scaling by ``b`` is a bijection of the
      carrier that fixes ``0``.  So ``b+c`` is empty, differs from ``c+b``
      or holds ``0`` iff ``1+c/b`` does, and ``x -> bx`` maps the inverses
      of ``1`` onto those of ``b``.  So only ``-0`` and ``-1`` are read;
      once ``unique inverse`` passes, ``-b = b(-1)``, else every ``-x`` is.
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
    - On a grid whose sums pass ``commutativity``, associativity first
      tests each multiset of grid values once, and so does reversibility
      where ``x -> -x`` maps the grid onto itself with ``-(-x) = x`` (``T``,
      not ``Q`` or ``P``).  Their scans compare ``S(b, c, a)`` with
      ``S(a, b, c)``, and ``R(-a, b, c) = [a in b+c]`` with ``R(b, -a, c)``,
      over every ordered triple; as above, each passes iff its function
      takes one value on all orders of each multiset: 3·C(n+2, 3) values,
      not 2·n^3.  Distributivity keeps its full scan: halving it would
      assume that sums off the grid, such as ``ab + ac``, commute.
    - With no generator, as on a grid, the group laws read each product of
      two units once, into a table.  On a grid, distributivity reads each
      ``a*x`` once per scalar: ``ab + ac`` is read off the grid where both
      products lie on it, and computed, not kept, otherwise.  Reversibility's scan reads ``-a + c`` once per ``a``.
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

    def read_negs(xs):
        for x in xs:
            with contextlib.suppress(DomainError):
                negs[x] = F.neg_value(x)

    # a finite carrier reads -0 and -1 now, and the rest only if needed
    rest = [x for x in vals if x != zero and x != one] if exhaustive else []
    read_negs([zero, one] if exhaustive else vals)
    results = {}
    own = {} if exhaustive else {v: v for v in vals}  # a grid's values, as its objects
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
    else:  # rays and arcs need the HyperSet methods; each grid sum is kept
        # a grid pair's sum by position, found by identity: no Fraction hashed
        position = {id(v): i for i, v in enumerate(vals)}
        grid = [[F.hyperadd_values(x, y) for y in vals] for x in vals]
        negs = {x: own.get(y, y) for x, y in negs.items()}
        add_right = F.add_set_value

        def add(x, y):  # a sum off the grid is computed and kept nowhere
            i, j = position.get(id(x)), position.get(id(y))
            return F.hyperadd_values(x, y) if i is None or j is None else grid[i][j]

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
        # the products of two units by position, each read once
        table = [[F.mul_values(x, y) for y in units] for x in units]
        for x in units:
            if F.mul_values(one, x) != x:
                yield f"x={fmt(x)}: 1*x = {fmt(F.mul_values(one, x))}"
            try:
                inverse = F.mul_values(x, F.inv_value(x)) == one
            except DomainError:
                inverse = False
            if not inverse:
                yield f"x={fmt(x)}: no multiplicative inverse"
        for i, j in itertools.product(range(len(units)), repeat=2):
            xy = table[i][j]
            if xy == zero or xy != table[j][i]:
                yield f"x={fmt(units[i])}, y={fmt(units[j])}: x*y = {fmt(xy)}"
        for i, j, k in itertools.product(range(len(units)), repeat=3):
            x, y, z = units[i], units[j], units[k]
            if F.mul_values(table[i][j], z) != F.mul_values(x, table[j][k]):
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
        for a in firsts:
            row = [add(negs[a], c) for c in vals] if a in negs else None  # -a + c
            for b in vals:
                if row is None or b not in negs:
                    yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(vals[0])}: hyperinverse undefined"
                    return
                for c, s in zip(vals, row):
                    if has(add(b, c), a) != has(s, negs[b]):
                        yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    def gen_zero_absorbs():
        for a in vals:
            if F.mul_values(zero, a) != zero or F.mul_values(a, zero) != zero:
                yield f"a={fmt(a)}"

    def gen_distributive(scalars):
        for a in scalars:
            products = map(F.mul_values, itertools.repeat(a), vals)
            ax = {x: own.get(v, v) for x, v in zip(vals, products)}  # once per scalar
            for b, c in itertools.product(vals, vals):
                if scale(a, add(b, c), ax) != add(ax[b], ax[c]):
                    yield f"a={fmt(a)}, b={fmt(b)}, c={fmt(c)}"

    def distributive_on_orbits():
        # round each cycle of (b, c) -> (gb, gc), each sum is g times the last
        image = {x: F.mul_values(g, x) for x in vals}.__getitem__  # one to one
        cycles = itertools.chain(
            [[(zero, zero)], zip(powers, itertools.repeat(zero)),
             zip(itertools.repeat(zero), powers)],
            (zip(powers, powers[d:] + powers[:d]) for d in range(len(powers))))
        for cycle in cycles:
            sums = list(itertools.starmap(add, cycle))  # each read once
            # the closing edge first, from the last sum to the first
            for s, t in zip(sums[-1:] + sums, sums):
                if len(t) != len(sums[0]) or not t.issuperset(map(image, s)):
                    return False
        return True

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

    # the proofs of the grid checks over triples: f, symmetric in y and z,
    # has one value on the orders of each multiset {x, y, z} of grid values
    def on_multisets(f):
        return lambda: all(f(x, y, z) == f(y, x, z) == f(z, x, y) for x, y, z
                           in itertools.combinations_with_replacement(vals, 3))

    # premises first, each domain reduced only once they pass; the report
    # lists the checks in _AXIOMS order
    run("multiplicative group", gen_group())
    run("zero absorbs", gen_zero_absorbs())
    run("neutral element", gen_neutral())
    premises = ("multiplicative group", "zero absorbs")
    cyclic = powers is not None
    at_g = cyclic and proved(*premises, "neutral element")
    run("distributivity", gen_distributive([g] if at_g else vals),
        distributive_on_orbits if at_g else None)
    premises += ("distributivity",)
    rows = [zero, one] if proved(*premises) else vals
    read_negs(rest if rows is vals else ())
    run("nonempty", gen_nonempty(rows))
    run("commutativity", gen_commutative(rows))
    run("unique inverse", gen_inverse(rows))
    if proved(*premises, "unique inverse"):  # -x = x(-1), as above
        negs.update((x, F.mul_values(x, negs[one])) for x in units)
    elif rows is not vals:
        read_negs(rest)
    associative = premises + ("commutativity",)
    commuting_grid = not exhaustive and results["commutativity"].passed
    run("associativity", gen_associative([one] if proved(*associative) else vals),
        associative_on_orbits if cyclic and proved(*associative)
        else on_multisets(lambda x, y, z: add_right(add(y, z), x))
        if commuting_grid else None)
    reversible = ("multiplicative group", "distributivity", "neutral element")
    self_inverse = commuting_grid and all(  # -x on the grid, -(-x) = x
        x in negs and negs.get(negs[x], vals) == x for x in vals)
    run("reversibility", gen_reversible([one] if proved(*reversible) else vals),
        reversible_on_orbits if cyclic and len(negs) == len(vals)
        and proved(*reversible, "commutativity")
        else on_multisets(lambda x, y, z: has(add(y, z), negs[x]))
        if self_inverse else None)

    notes += getattr(F, "axiom_notes", ())
    return AxiomReport(F.name, exhaustive, [results[a] for a in _AXIOMS], notes)
