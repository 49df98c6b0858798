"""Dense exact-rational polynomial helpers: arithmetic, gcd, Yun squarefree
decomposition, and Sturm chains.  Coefficients are ascending lists of
Fractions with no trailing zeros."""

from __future__ import annotations

from fractions import Fraction

from .core import DomainError


def normalize(coeffs) -> list:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p) -> int:
    return len(p) - 1


def is_zero(p) -> bool:
    return not p


def add(p, q) -> list:
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def neg(p) -> list:
    return [-c for c in p]


def sub(p, q) -> list:
    return add(p, neg(q))


def scale(p, c) -> list:
    return normalize([ci * c for ci in p])


def mul(p, q) -> list:
    if is_zero(p) or is_zero(q):
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def divmod_exact(p, q):
    if is_zero(q):
        raise DomainError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q) and not is_zero(rem):
        k = len(rem) - len(q)
        c = rem[-1] / lead
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = normalize(rem)
    return normalize(quo), rem


def rem(p, q) -> list:
    return divmod_exact(p, q)[1]


def div_exact(p, q) -> list:
    quo, r = divmod_exact(p, q)
    if not is_zero(r):
        raise DomainError("inexact polynomial division")
    return quo


def derivative(p) -> list:
    return normalize([i * c for i, c in enumerate(p)][1:])


def monic(p) -> list:
    if is_zero(p):
        return []
    return scale(p, 1 / p[-1])


def gcd(p, q) -> list:
    a, b = normalize(p), normalize(q)
    while not is_zero(b):
        a, b = b, rem(a, b)
    return monic(a)


def eval_at(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def expand_roots(roots, lead=Fraction(1)) -> list:
    """Expand lead * prod (T - r) over the given roots."""
    p = [Fraction(lead)]
    for r in roots:
        p = mul(p, [-Fraction(r), Fraction(1)])
    return p


def yun_squarefree(p) -> list:
    """Yun's algorithm: pairs (f_i, i) with p = lc * prod f_i^i, f_i monic
    squarefree and pairwise coprime.  Constant factors are dropped."""
    p = monic(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = gcd(p, dp)
    if degree(g) == 0:
        return [(p, 1)]
    out = []
    c = div_exact(p, g)
    d = sub(div_exact(dp, g), derivative(c))
    i = 1
    while degree(c) > 0:
        f = gcd(c, d)
        if degree(f) > 0:
            out.append((f, i))
        c2 = div_exact(c, f)
        d = sub(div_exact(d, f), derivative(c2))
        c = c2
        i += 1
    return out


def sturm_chain(p) -> list:
    """p, p', then negated remainders until a nonzero constant (or gcd)."""
    chain = [normalize(p)]
    d = derivative(p)
    if not is_zero(d):
        chain.append(d)
        while degree(chain[-1]) > 0:
            r = rem(chain[-2], chain[-1])
            if is_zero(r):
                break
            chain.append(neg(r))
    return chain


def _variations(signs) -> int:
    """Sign changes along a sequence of nonzero signs."""
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _limit_signs(p) -> tuple:
    """Signs of a nonzero p at -inf, 0-, 0+ and +inf, read off its lowest
    and highest nonzero terms."""
    i, low = next((i, c) for i, c in enumerate(p) if c != 0)
    lo, hi = (1 if low > 0 else -1), (1 if p[-1] > 0 else -1)
    return (hi if degree(p) % 2 == 0 else -hi, lo if i % 2 == 0 else -lo, lo, hi)


def count_distinct_roots_by_sign(p) -> dict:
    """Distinct roots of a squarefree p, keyed by sign: -1, 0 and 1.

    One Sturm chain is evaluated at the limits -inf, 0-, 0+ and +inf, so
    no finite bound is chosen; zero is a root exactly when p(0) = 0.
    """
    signs = [_limit_signs(q) for q in sturm_chain(p)]
    vneg, v0m, v0p, vpos = (_variations(column) for column in zip(*signs))
    return {-1: vneg - v0m, 0: int(p[0] == 0), 1: v0p - vpos}
