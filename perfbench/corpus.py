"""Seeded case corpora for the three benchmark workloads.

A case is one ``hyperpoly`` command line (with ``--format json``) plus the
data its oracle needs.  The polynomial *shapes* of each workload are drawn
once from a fixed stream (``SHAPE_SEED``), so every seed runs the same work
profile; the run seed picks, for each shape, one of its cost-equivalent
variants and the order of the cases.  Without that, a few deep sign
polynomials more or less in a run would move its throughput by more than
any useful regression bound: within one (degree, sign-change) stratum,
the multiplicity search costs anywhere from 20 ms to 2 s.

The variants are symmetries that map the search onto itself:

* sign polynomials: ``p -> -p`` and ``(p, 1) -> (p(-T), -1)``;
* quotient polynomials: the seeded roots scaled by a unit ``u`` of ``F_p``
  (a sweep over all elements visits the same states, relabelled) and any
  nonzero leading coefficient;
* ``W`` polynomials and hyperproduct factors: negation and ``T -> -T``;
* rational split polynomials: roots mirrored ``r -> -r`` and the leading
  coefficient negated;
* tropical root multisets: every finite root shifted by one rational and
  the polynomial scaled tropically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SHAPE_SEED = 181104966

INF = "inf"


@dataclass(frozen=True)
class Case:
    """One CLI call: its argv and what the oracle needs to judge the answer."""

    kind: str
    argv: tuple
    expect: dict


def sign_changes(coeffs) -> int:
    nonzero = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def join(values) -> str:
    return ",".join(str(v) for v in values)


def expand_roots(roots, lead) -> list:
    """lead * prod (T - r), ascending coefficients."""
    coeffs = [lead]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs


def _argv(*parts) -> tuple:
    return tuple(parts) + ("--format", "json")


# -- sign-deep ------------------------------------------------------------------

# degree -> shapes per pass; the deep end dominates the pass time
SIGN_DEGREES = {6: 16, 7: 16, 8: 16, 9: 16, 10: 14, 11: 12, 12: 10}
# alternating patterns of degree 12 run for tens of seconds each
SIGN_MAX_CHANGES = 8
SIGN_ZERO_RATE = 0.2


def sign_shapes() -> list:
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for degree, count in SIGN_DEGREES.items():
        while count:
            coeffs = [0 if rng.random() < SIGN_ZERO_RATE else rng.choice((1, -1))
                      for _ in range(degree)] + [rng.choice((1, -1))]
            if sign_changes(coeffs) <= SIGN_MAX_CHANGES:
                shapes.append(tuple(coeffs))
                count -= 1
    return shapes


def sign_deep(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for shape in sign_shapes():
        s, at = rng.choice((1, -1)), rng.choice((1, -1))
        coeffs = [s * c * at ** i for i, c in enumerate(shape)]
        cases.append(Case("mult-S",
                          _argv("mult", "--field", "S", f"--poly={join(coeffs)}",
                                f"--at={at}"),
                          {"coeffs": coeffs, "at": at}))
    rng.shuffle(cases)
    return cases


# -- table-wide -----------------------------------------------------------------

# carriers of 5, 6, 7, 7 and 11 values
QUOTIENT_SPECS = ("quot:13:3", "quot:11:10", "quot:13:12", "quot:19:7",
                  "quot:31:5")
QUOTIENT_DEGREES = (4, 5, 6)
QUOTIENT_SHAPES = 2          # per (spec, degree)
K_SHAPES = 24
W_SHAPES = 24
HYPERPROD_FACTORS = (4, 5, 6, 7)
HYPERPROD_SHAPES = 2         # per (field, factor count)
AXIOM_SPECS = ("quot:31:1", "quot:37:1", "quot:41:1", "quot:43:1", "Fp:31",
               "P", "T", "Q")


def quotient_spec(spec: str):
    """(p, subgroup, coset representative of every residue) for quot:p:g,..."""
    _, p, gens = spec.split(":")
    p = int(p)
    gens = [int(g) % p for g in gens.split(",")]
    subgroup = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % p
            if y not in subgroup:
                subgroup.add(y)
                frontier.append(y)
    rep = {0: 0}
    for r in range(1, p):
        rep[r] = min(r * h % p for h in subgroup)
    return p, frozenset(subgroup), rep


def _random_tree(rng, lo: int, hi: int) -> str:
    if lo == hi:
        return str(lo)
    mid = rng.randint(lo, hi - 1)
    return f"({_random_tree(rng, lo, mid)} {_random_tree(rng, mid + 1, hi)})"


def table_shapes() -> dict:
    rng = random.Random(SHAPE_SEED)
    shapes = {"quot": [], "K": [], "W": [], "hyperprod": []}
    for spec in QUOTIENT_SPECS:
        p = quotient_spec(spec)[0]
        for degree in QUOTIENT_DEGREES:
            for _ in range(QUOTIENT_SHAPES):
                roots = tuple(rng.randrange(1, p) for _ in range(degree))
                shapes["quot"].append((spec, roots))
    for _ in range(K_SHAPES):
        degree = rng.randint(4, 6)
        shapes["K"].append(tuple(rng.choice((0, 1)) for _ in range(degree)) + (1,))
    for _ in range(W_SHAPES):
        degree = rng.randint(4, 6)
        shapes["W"].append(tuple(rng.choice((0, 1, -1)) for _ in range(degree))
                           + (rng.choice((1, -1)),))
    for fld in ("S", "W"):
        for k in HYPERPROD_FACTORS:
            for _ in range(HYPERPROD_SHAPES):
                factors = tuple((rng.choice((1, -1)), rng.choice((1, -1)))
                                for _ in range(k))
                shapes["hyperprod"].append((fld, factors, _random_tree(rng, 1, k)))
    return shapes


def table_wide(seed: int) -> list:
    rng = random.Random(seed)
    shapes = table_shapes()
    cases = []
    for spec, roots in shapes["quot"]:
        p, _, rep = quotient_spec(spec)
        u, lead = rng.randrange(1, p), rng.randrange(1, p)
        scaled = [u * r % p for r in roots]
        coeffs = [rep[c % p] for c in expand_roots(scaled, lead)]
        cases.append(Case("roots-quot",
                          _argv("roots", "--field", spec, f"--poly={join(coeffs)}"),
                          {"spec": spec, "coeffs": coeffs, "roots": scaled}))
    for shape in shapes["K"]:
        cases.append(Case("roots-K",
                          _argv("roots", "--field", "K", f"--poly={join(shape)}"),
                          {"spec": "K", "coeffs": list(shape)}))
    for shape in shapes["W"]:
        s, t = rng.choice((1, -1)), rng.choice((1, -1))
        coeffs = [s * c * t ** i for i, c in enumerate(shape)]
        cases.append(Case("roots-W",
                          _argv("roots", "--field", "W", f"--poly={join(coeffs)}"),
                          {"spec": "W", "coeffs": coeffs}))
    for fld, factors, tree in shapes["hyperprod"]:
        t = rng.choice((1, -1))
        signed = []
        for c0, c1 in factors:
            s = rng.choice((1, -1))
            signed.append((s * c0, s * t * c1))
        polys = ";".join(f"({c0},{c1})" for c0, c1 in signed)
        cases.append(Case("hyperprod",
                          _argv("hyperprod", "--field", fld, "--polys", polys,
                                "--assoc", tree),
                          {"factors": signed}))
    for spec in AXIOM_SPECS:
        cases.append(Case("axioms", _argv("axioms", "--field", spec), {"spec": spec}))
    rng.shuffle(cases)
    return cases


# -- exact-verify -----------------------------------------------------------------

SPLIT_DEGREES = range(8, 21)
DESCARTES_ROOT_POOL = tuple(Fraction(x) for x in
                            ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2",
                             "2/3", "-3/2"))
PADIC_ROOT_POOL = tuple(Fraction(x) for x in
                        ("1", "-1", "2", "-2", "4", "-4", "1/2", "-1/2", "3",
                         "-3", "1/3", "6", "-9/2"))
SPLIT_LEADS = tuple(Fraction(x) for x in ("1", "2", "1/2", "3", "-5/3"))
TROPICAL_ROOT_POOL = tuple(Fraction(x) for x in ("-2", "-1", "0", "1/3", "1", "2")) + (INF,)
TROPICAL_SHAPES = 22
TROPICAL_SHIFTS = tuple(Fraction(x) for x in ("-1", "0", "1/2", "2"))
TROPICAL_LEADS = tuple(Fraction(x) for x in ("0", "1", "-3/2"))
# (what, --cases): each batch is about as long as a deep split case
VERIFY_BATCHES = (("descartes", 30), ("newton", 15), ("tropical", 60))
VERIFY_REPEATS = 2


def exact_shapes() -> dict:
    rng = random.Random(SHAPE_SEED)
    shapes = {"descartes": [], "newton": [], "tropical": []}
    for degree in SPLIT_DEGREES:
        for hinted in (True, False):
            shapes["descartes"].append(
                (tuple(sorted(rng.choice(DESCARTES_ROOT_POOL) for _ in range(degree))),
                 rng.choice(SPLIT_LEADS), hinted))
            shapes["newton"].append(
                (tuple(sorted(rng.choice(PADIC_ROOT_POOL) for _ in range(degree))),
                 rng.choice(SPLIT_LEADS), hinted, rng.choice((2, 3))))
    for _ in range(TROPICAL_SHAPES):
        size = rng.randint(3, 8)
        shapes["tropical"].append(tuple(rng.choice(TROPICAL_ROOT_POOL)
                                        for _ in range(size)))
    return shapes


def tropical_sort_key(v):
    return (1, 0) if v == INF else (0, v)


def tropical_expand(roots, lead) -> list:
    """Coefficient c_{n-i} is lead plus the sum of the i smallest roots."""
    vals = sorted(roots, key=tropical_sort_key)
    n = len(vals)
    sums = [Fraction(0)]
    for v in vals:
        sums.append(INF if INF in (v, sums[-1]) else sums[-1] + v)
    return [INF if sums[n - j] == INF else sums[n - j] + lead for j in range(n + 1)]


def _split_variant(rng, roots, lead):
    m, s = rng.choice((1, -1)), rng.choice((1, -1))
    roots = sorted(m * r for r in roots)
    lead = s * lead
    coeffs = expand_roots(roots, lead)
    return roots, coeffs


def exact_verify(seed: int) -> list:
    rng = random.Random(seed)
    shapes = exact_shapes()
    cases = []
    for what, count in VERIFY_BATCHES:
        for _ in range(VERIFY_REPEATS):
            batch_seed = rng.randrange(1 << 30)
            cases.append(Case("verify",
                              _argv("verify", "--what", what, "--cases", str(count),
                                    "--seed", str(batch_seed)),
                              {"what": what}))
    for roots, lead, hinted in shapes["descartes"]:
        roots, coeffs = _split_variant(rng, roots, lead)
        argv = ["descartes", f"--poly={join(coeffs)}"]
        if hinted:
            argv.append(f"--roots={join(roots)}")
        cases.append(Case("descartes", _argv(*argv),
                          {"coeffs": coeffs, "roots": roots, "hinted": hinted}))
    for roots, lead, hinted, prime in shapes["newton"]:
        roots, coeffs = _split_variant(rng, roots, lead)
        argv = ["newton", "--field", "Q", f"--poly={join(coeffs)}",
                "--prime", str(prime)]
        if hinted:
            argv.append(f"--roots={join(roots)}")
        cases.append(Case("newton", _argv(*argv),
                          {"coeffs": coeffs, "roots": roots, "hinted": hinted,
                           "prime": prime}))
    for shape in shapes["tropical"]:
        shift, lead = rng.choice(TROPICAL_SHIFTS), rng.choice(TROPICAL_LEADS)
        roots = sorted((r if r == INF else r + shift for r in shape),
                       key=tropical_sort_key)
        coeffs = tropical_expand(roots, lead)
        cases.append(Case("factor-T",
                          _argv("factor", "--field", "T", f"--poly={join(coeffs)}"),
                          {"roots": roots}))
        at = rng.choice(roots + [shift + Fraction(5, 7)])
        cases.append(Case("mult-T",
                          _argv("mult", "--field", "T", f"--poly={join(coeffs)}",
                                f"--at={at}"),
                          {"roots": roots, "at": at}))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "sign-deep": sign_deep,
    "table-wide": table_wide,
    "exact-verify": exact_verify,
}
