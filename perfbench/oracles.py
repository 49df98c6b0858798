"""Oracles for the benchmark's cases, independent of the code under test.

Each oracle takes a case and the JSON the CLI printed for it and returns
``None`` when the answer is right, or a one-line reason when it is not.
None of them calls into ``hyperpoly``: hypersums are evaluated here from
small tables (``S``, ``K``, ``W``) or from coset arithmetic in ``F_p``, real
root counts come from sympy, and everything else from the roots each case
was generated from.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from corpus import INF, quotient_spec, sign_changes


def _ints(text: str) -> list:
    return [int(x) for x in text.split(",")]


# -- finite hyperfields from first principles ----------------------------------


class Table:
    """A finite hyperfield as carrier, product and hypersum functions."""

    def __init__(self, carrier, mul, add):
        self.carrier = list(carrier)
        self.mul = mul
        self.add = add

    def is_root(self, coeffs, a) -> bool:
        """0 lies in the hypersum of c_i a^i (the evaluation criterion)."""
        acc = {0}
        power = 1
        for i, c in enumerate(coeffs):
            if i:
                power = self.mul(power, a)
            term = self.mul(c, power)
            acc = set().union(*(self.add(x, term) for x in acc))
        return 0 in acc


def _sign_add(x, y):
    if x == 0:
        return {y}
    if y == 0 or x == y:
        return {x}
    return {0, 1, -1}


def _weak_sign_add(x, y):
    if x == 0:
        return {y}
    if y == 0:
        return {x}
    return {1, -1} if x == y else {0, 1, -1}


def _krasner_add(x, y):
    if x == 0:
        return {y}
    if y == 0:
        return {x}
    return {0, 1}


KRASNER = Table((0, 1), lambda x, y: x * y, _krasner_add)
WEAK_SIGN = Table((0, 1, -1), lambda x, y: x * y, _weak_sign_add)


@lru_cache(maxsize=None)
def quotient_table(spec: str) -> Table:
    p, subgroup, rep = quotient_spec(spec)
    reps = sorted(set(rep.values()))
    members = {r: [x for x in range(p) if rep[x] == r] for r in reps}
    sums = {(a, b): frozenset(rep[(x + y) % p] for x in members[a] for y in members[b])
            for a in reps for b in reps}
    return Table(reps, lambda a, b: rep[a * b % p], lambda a, b: sums[(a, b)])


def table_for(spec: str) -> Table:
    return {"K": KRASNER, "W": WEAK_SIGN}.get(spec) or quotient_table(spec)


def sign_divides(p, a, q) -> bool:
    """p in (T - a) q over S, checked coefficient by coefficient."""
    n = len(p) - 1
    if n < 1 or len(q) != n:
        return False
    if p[n] != q[n - 1] or p[0] != -a * q[0]:
        return False
    return all(p[i] in _sign_add(-a * q[i], q[i - 1]) for i in range(1, n))


# -- one oracle per case kind ------------------------------------------------------


def check_mult_sign(case, out) -> str | None:
    coeffs, at = case.expect["coeffs"], case.expect["at"]
    want = sign_changes([c * at ** i for i, c in enumerate(coeffs)])
    if out["multiplicity"] != want:
        return f"multiplicity {out['multiplicity']} != sign changes {want}"
    chain = [_ints(q) for q in out["witness"]]
    if len(chain) != want:
        return f"witness length {len(chain)} != multiplicity {want}"
    current = coeffs
    for q in chain:
        if not sign_divides(current, at, q):
            return f"witness step {q} does not divide {current}"
        current = q
    return None


def check_roots(case, out) -> str | None:
    spec, coeffs = case.expect["spec"], case.expect["coeffs"]
    table = table_for(spec)
    listed = {int(r["element"]): r["multiplicity"] for r in out["roots"]}
    want = {a for a in table.carrier if table.is_root(coeffs, a)}
    if set(listed) != want:
        return f"listed roots {sorted(listed)} != evaluation roots {sorted(want)}"
    if any(m < 1 for m in listed.values()):
        return "a listed root has multiplicity below 1"
    if spec == "K":
        n = len(coeffs) - 1
        r = next(i for i, c in enumerate(coeffs) if c)
        for a, m in ((0, r), (1, n - r)):
            if listed.get(a, 0) != m:
                return f"mult{a} = {listed.get(a, 0)}, expected {m}"
    if "roots" in case.expect:
        _, _, rep = quotient_spec(spec)
        counts = {}
        for r in case.expect["roots"]:
            counts[rep[r]] = counts.get(rep[r], 0) + 1
        for coset, count in counts.items():
            if listed.get(coset, 0) < count:
                return (f"{count} roots of the F_p lift lie in coset {coset}, "
                        f"multiplicity is {listed.get(coset, 0)}")
    return None


def check_hyperprod(case, out) -> str | None:
    product = [1]
    for factor in case.expect["factors"]:
        product = poly_mul(product, factor)
    image = ",".join(str((c > 0) - (c < 0)) for c in product)
    if image not in out["products"]:
        return f"sign image {image} of the real product is missing"
    if out["count"] != len(out["products"]):
        return f"count {out['count']} != {len(out['products'])} products listed"
    return None


def poly_mul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def check_axioms(case, out) -> str | None:
    return None if out["passed"] is True else "axiom check did not pass"


def check_verify(case, out) -> str | None:
    if out["what"] != case.expect["what"]:
        return f"batch {out['what']} != {case.expect['what']}"
    return None if out["failures"] == 0 else f"{out['failures']} batch failures"


@lru_cache(maxsize=None)
def _sympy_counts(coeffs: tuple) -> tuple:
    import sympy

    x = sympy.Symbol("x")
    roots = sympy.real_roots(sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                         for c in reversed(coeffs)], x))
    return sum(1 for r in roots if r > 0), sum(1 for r in roots if r < 0)


def check_descartes(case, out) -> str | None:
    coeffs = case.expect["coeffs"]
    bound_pos = sign_changes(coeffs)
    bound_neg = sign_changes([c * (-1) ** i for i, c in enumerate(coeffs)])
    if (out["bound_pos"], out["bound_neg"]) != (bound_pos, bound_neg):
        return (f"bounds {out['bound_pos']},{out['bound_neg']} != sign changes "
                f"{bound_pos},{bound_neg}")
    if case.expect["hinted"]:
        roots = case.expect["roots"]
        want = (sum(1 for r in roots if r > 0), sum(1 for r in roots if r < 0))
        if out["ok"] is not True:
            return "ok is false on a split hint"
    else:
        want = _sympy_counts(tuple(coeffs))
    got = (out["positive_roots"], out["negative_roots"])
    if got != want:
        return f"root counts {got} != {want}"
    return None


def _valuation(x: Fraction, p: int):
    if x == 0:
        return INF

    def order(n):
        n, k = abs(n), 0
        while n % p == 0:
            n, k = n // p, k + 1
        return k

    return Fraction(order(x.numerator) - order(x.denominator))


def check_newton(case, out) -> str | None:
    prime, coeffs = case.expect["prime"], case.expect["coeffs"]
    vals = ",".join(str(_valuation(c, prime)) for c in coeffs)
    if out["valuations"] != vals:
        return f"valuations {out['valuations']} != {vals}"
    want = {}
    for r in case.expect["roots"]:
        v = str(_valuation(r, prime))
        want[v] = want.get(v, 0) + 1
    got = {row["slope"]: row["nu"] for row in out["rows"] if row["nu"]}
    if got != want:
        return f"segment lengths {got} != root valuations {want}"
    if case.expect["hinted"] and out["ok"] is not True:
        return "ok is false on a split hint"
    return None


def check_factor(case, out) -> str | None:
    want = [str(r) for r in case.expect["roots"]]
    return None if out["roots"] == want else f"roots {out['roots']} != {want}"


def check_mult_tropical(case, out) -> str | None:
    want = sum(1 for r in case.expect["roots"] if r == case.expect["at"])
    if out["multiplicity"] != want:
        return f"multiplicity {out['multiplicity']} != {want}"
    if len(out["witness"]) != want:
        return f"witness length {len(out['witness'])} != {want}"
    return None


ORACLES = {
    "mult-S": check_mult_sign,
    "roots-quot": check_roots,
    "roots-K": check_roots,
    "roots-W": check_roots,
    "hyperprod": check_hyperprod,
    "axioms": check_axioms,
    "verify": check_verify,
    "descartes": check_descartes,
    "newton": check_newton,
    "factor-T": check_factor,
    "mult-T": check_mult_tropical,
}


def verdict(case, code, stdout: str) -> str | None:
    """Judge one CLI call: exit code 0, parseable JSON, and the oracle."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    try:
        return ORACLES[case.kind](case, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"
