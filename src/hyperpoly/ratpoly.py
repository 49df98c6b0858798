"""Exact real root counting on primitive integer polynomials: Yun squarefree
decomposition and Sturm chains.

A polynomial is an ascending coefficient list with no trailing zeros.  A
rational input has its denominators cleared once, by their lcm, and is
divided by its positive content, so the kernels see a primitive integer
polynomial that is a positive multiple of the input.  Every later step keeps
that invariant: quotients are exact in Z by Gauss's lemma, and a remainder
is a positive multiple of the rational one, reduced by its positive content.
Only roots and signs are read, and positive multiples keep both.
"""

from __future__ import annotations

import math
from itertools import zip_longest


def normalize(coeffs) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p) -> int:
    return len(p) - 1


def primitive(p) -> list:
    """The primitive integer polynomial that is a positive multiple of the
    rational polynomial p: denominators cleared by their lcm, then divided
    by the positive content."""
    den = math.lcm(*(c.denominator for c in p))
    q = normalize(c.numerator * (den // c.denominator) for c in p)
    g = math.gcd(*q)
    return [c // g for c in q] if g > 1 else q


def sub(p, q) -> list:
    return normalize(a - b for a, b in zip_longest(p, q, fillvalue=0))


def mul(p, q) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def derivative(p) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def exact_quotient(p, q) -> list:
    """p / q for integer polynomials with q dividing p over Q; the quotient
    has integer coefficients whenever q is primitive (Gauss's lemma)."""
    rem = list(p)
    n, lead = degree(q), q[-1]
    quo = [0] * (len(p) - n)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + n] // lead
        if c:
            for i in range(n):
                rem[k + i] -= c * q[i]
    return quo


def pseudo_remainder(p, q) -> list:
    """A positive multiple of the remainder of p by q: each step scales p
    by |lc(q)| before it cancels the top term, so the product of the scales
    is |lc(q)|^k for some k <= deg p - deg q + 1."""
    rem = list(p)
    n, lead = degree(q), q[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    for top in reversed(range(n, len(rem))):
        c = sign * rem[top]
        if c:
            k = top - n
            for i in range(top):
                rem[i] *= scale
            for i in range(n):
                rem[k + i] -= c * q[i]
    return normalize(rem[:n])


def gcd(p, q) -> list:
    """Primitive gcd of two integer polynomials, leading coefficient
    positive, from the primitive pseudo-remainder sequence."""
    a, b = primitive(p), primitive(q)
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))
    return a if not a or a[-1] > 0 else [-c for c in a]


def expand_roots(roots) -> list:
    """The product of (d*T - n) over the roots n/d: the integer multiple of
    prod (T - r) by the product of the denominators."""
    p = [1]
    for r in roots:
        p = mul(p, [-r.numerator, r.denominator])
    return p


def yun_squarefree(p) -> list:
    """Yun's algorithm: pairs (f_i, i) with p a rational multiple of
    prod f_i^i, each f_i a squarefree primitive integer polynomial with a
    positive leading coefficient, pairwise coprime.  Constant factors are
    dropped."""
    p = primitive(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = gcd(p, dp)
    out = []
    c = exact_quotient(p, g)
    d = sub(exact_quotient(dp, g), derivative(c))
    i = 1
    while degree(c) > 0:
        f = gcd(c, d)
        if degree(f) > 0:
            out.append((f, i))
        c, d = exact_quotient(c, f), exact_quotient(d, f)
        d = sub(d, derivative(c))
        i += 1
    return out


def sturm_chain(p) -> list:
    """p, p', then negated remainders until a nonzero constant (or gcd).

    Each member is the primitive integer polynomial that is a positive
    multiple of the classical Sturm sequence's member, so every sign agrees.
    """
    chain = [primitive(p)]
    d = primitive(derivative(chain[0]))
    if d:
        chain.append(d)
        while degree(chain[-1]) > 0:
            r = pseudo_remainder(chain[-2], chain[-1])
            if not r:
                break
            chain.append(primitive([-c for c in r]))
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
