"""Polynomial factorization over finite fields.

Distinct-degree splitting followed by Cantor-Zassenhaus equal-degree
splitting.  The equal-degree stage is randomized but driven by a seeded
generator, so identical inputs and seeds factor identically.  Everything
runs on the int encodings a Poly over a finite field stores: the random
splitting polynomials are drawn as encodings, factors sort by degree and
encodings, and the re-multiply guard starts from the leading encoding.
_distinct_degree is the one distinct-degree walk: poly_factor splits each
of its pairs further, and is_irreducible reads only its first pair.
"""

from __future__ import annotations

import random

from ..errors import SelfCheckFailed, ZeroPolynomial
from .poly import Poly

# seeds the random splitting, so every factorization is reproducible
FACTOR_SEED = 0x5EED


def _pth_root_poly(f: Poly) -> Poly:
    """For f with zero derivative over F_q, the g with g^p = f."""
    ctx = f.ctx
    root_exp = ctx.q // ctx.p  # a -> a^(q/p) is the inverse Frobenius
    return Poly.from_encs(ctx, [ctx.pow_enc(c, root_exp)
                                for c in f.coeffs[::ctx.p]])


def _distinct_part(f: Poly) -> Poly:
    """Product of the distinct monic irreducible factors of monic f."""
    if f.degree <= 0:
        return Poly.one(f.ctx)
    fp = f.derivative()
    if fp.is_zero():
        return _distinct_part(_pth_root_poly(f))
    g = f.gcd(fp)
    w = f // g
    rest = _distinct_part(g)
    return (w * (rest // rest.gcd(w))).monic()


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Split a squarefree product of degree-d irreducibles."""
    ctx = f.ctx
    if f.degree == d:
        return [f]
    q = ctx.q
    n = f.degree
    while True:
        r = Poly.from_encs(ctx, [rng.randrange(q) for _ in range(n)])
        if r.degree < 1:
            continue
        if ctx.p == 2:
            # trace map over F_2 inside F_{q^d}
            acc = Poly.zero(ctx)
            cur = r % f
            for _ in range(ctx.f * d):
                acc = (acc + cur) % f
                cur = (cur * cur) % f
            g = f.gcd(acc)
        else:
            s = r.pow_mod((q ** d - 1) // 2, f)
            g = f.gcd(s - Poly.one(ctx))
        if 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def _distinct_degree(f: Poly):
    """For d = 1, 2, ... while 2d <= deg r, r the part of monic f not yet
    split off: (d, g) for each g = gcd(x^(q^d) - x, r) other than 1; then
    (deg r, r).  For squarefree f, g is the product of the irreducible
    factors of degree d, and the last r is irreducible."""
    q = f.ctx.q
    x = Poly.x(f.ctx)
    h = x
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            yield f.degree, f
            return
        h = h.pow_mod(q, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            yield d, g
            f = f // g
            h = h % f


def _factor_squarefree(f: Poly, rng: random.Random) -> list[Poly]:
    """Irreducible factors of a squarefree monic polynomial."""
    return [irr for d, g in _distinct_degree(f)
            for irr in _equal_degree_split(g, d, rng)]


def _sort_key(p: Poly):
    return (p.degree, p.coeffs)


def poly_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor f over its finite field into monic irreducibles.

    Returns (factor, multiplicity) pairs sorted by (degree, coefficients);
    the product of factor^multiplicity times lc(f) re-multiplies to f.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    rng = random.Random(FACTOR_SEED)
    monic = f.monic()
    distinct = _factor_squarefree(_distinct_part(monic), rng)
    out = [(irr, monic.strip(irr)[0]) for irr in distinct]
    out.sort(key=lambda pm: _sort_key(pm[0]))
    # exactness guard: re-multiply
    check = Poly.from_encs(f.ctx, f.coeffs[-1:])
    for irr, m in out:
        check = check * irr ** m
    if check != f:
        raise SelfCheckFailed("factorization failed to re-multiply")
    return out


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the finite field of the coefficients, by Ben-Or's
    test: f, squarefree or not, is reducible iff it has an irreducible
    factor of degree d <= deg f / 2, where the distinct-degree walk stops."""
    if f.degree <= 0:
        return False
    d, _ = next(_distinct_degree(f.monic()))
    return d == f.degree
