"""Exact real root counting on primitive integer polynomials: a tower of
Sturm chains.

A polynomial is an ascending coefficient list with no trailing zeros.  A
rational input has its denominators cleared once, by their lcm, and is
divided by its positive content, so the kernels see a primitive integer
polynomial that is a positive multiple of the input.  Every later step keeps
that invariant: a remainder is a positive multiple of the rational one,
reduced by its positive content.  Only roots and signs are read, and
positive multiples keep both.
"""

from __future__ import annotations

import math


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


def expand_roots(roots) -> list:
    """The product of (d*T - n) over the roots n/d: the integer multiple of
    prod (T - r) by the product of the denominators."""
    p = [1]
    for r in roots:
        p = mul(p, [-r.numerator, r.denominator])
    return p


def sturm_chain(p) -> list:
    """p, p', then negated remainders until one is zero: the last member
    is gcd(p, p'), a constant when p is squarefree.

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


def variations(signs) -> int:
    """Sign changes along a sequence of nonzero signs."""
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _limit_signs(p) -> tuple:
    """Signs of a nonzero p at -inf, 0-, 0+ and +inf, read off its lowest
    and highest nonzero terms."""
    i, low = next((i, c) for i, c in enumerate(p) if c != 0)
    lo, hi = (1 if low > 0 else -1), (1 if p[-1] > 0 else -1)
    return (hi if degree(p) % 2 == 0 else -hi, lo if i % 2 == 0 else -lo, lo, hi)


def count_roots_by_sign(p) -> dict:
    """Real roots of a nonzero p with multiplicity, keyed by sign: -1, 0
    and 1.

    The Sturm chain of g, read at the limits -inf, 0-, 0+ and +inf, counts
    the distinct roots of g, so no finite bound is chosen; zero is a root
    exactly when g(0) = 0.  The chain ends in gcd(g, g'), whose roots are
    the repeated roots of g, each with one multiplicity fewer.  So the
    distinct counts summed over g = p, gcd(g, g'), ... until g is constant
    count every root with its multiplicity.
    """
    counts = {-1: 0, 0: 0, 1: 0}
    g = p
    while degree(g) > 0:
        chain = sturm_chain(g)
        vneg, v0m, v0p, vpos = (variations(column)
                                for column in zip(*map(_limit_signs, chain)))
        counts[-1] += vneg - v0m
        counts[0] += g[0] == 0
        counts[1] += v0p - vpos
        g = chain[-1]
    return counts
