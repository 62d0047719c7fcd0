"""Differential tests of F_p arithmetic against sympy.

sympy is an independent implementation, so factorizations, the
irreducibility test, gcds and resultants over F_p must agree with it on
seeded random polynomials (resultants with sympy's determinant of the
Sylvester matrix, see sylvester_resultant).  Places of F_q(t) trust
poly_factor's factors without testing them again; this is the check on
those factors.  sympy prints GF(p) coefficients in the symmetric range,
so every coefficient is compared mod p.  Discrete logs in F_p^x are
compared with sympy's discrete_log, ell-th roots of principal units
of Z_p with sympy's nthroot_mod modulo p^N, the odd-p Hilbert symbol,
by Euler's criterion on its tame value, with sympy's legendre_symbol, and
truncated products of coefficient lists over F_p (mul_trunc, the one
product kernel) with sympy's gf_mul.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_mul  # noqa: E402

from milnorforge.arith.factor import is_irreducible, poly_factor  # noqa: E402
from milnorforge.arith.finite_field import ff_ctx  # noqa: E402
from milnorforge.arith.local import padic_ctx, principal_unit_root  # noqa: E402
from milnorforge.arith.poly import Poly  # noqa: E402
from milnorforge.localk import hilbert  # noqa: E402
from test_local import ROOT_CASES, root_samples  # noqa: E402

X = sympy.Symbol("x")
PRIMES = (2, 3, 5, 7)
MAX_DEGREE = 8


def to_sympy(f: Poly, p: int):
    return sympy.Poly(list(reversed(f.coeffs)), X, modulus=p)


def ints(f: Poly) -> list:
    # over F_p a Poly stores its coefficients as their integers 0..p-1
    return list(f.coeffs)


def sympy_ints(g, p: int) -> list:
    """Coefficients of a sympy GF(p) polynomial, low first, in 0..p-1."""
    return [int(c) % p for c in reversed(g.all_coeffs())]


def sympy_monic(g, p: int) -> list:
    cs = sympy_ints(g, p)
    inv = pow(cs[-1], -1, p)
    return [c * inv % p for c in cs]


def random_poly(k, rng, degree: int) -> Poly:
    return Poly.from_ints(k, [rng.randrange(k.p) for _ in range(degree)]
                          + [rng.randrange(1, k.p)])


def samples(p: int, count: int = 30):
    """Random polynomials of degree 1..8, half of them a*b^2 so that
    repeated factors occur."""
    k = ff_ctx(p)
    rng = random.Random(1000 + p)
    out = []
    for i in range(count):
        if i % 2:
            a = random_poly(k, rng, rng.randrange(0, 4))
            b = random_poly(k, rng, rng.randrange(1, 3))
            out.append(a * b * b)
        else:
            out.append(random_poly(k, rng, rng.randrange(1, MAX_DEGREE + 1)))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_poly_factor_agrees_with_sympy(p):
    for f in samples(p):
        lc, facs = to_sympy(f, p).factor_list()
        want = sorted((tuple(sympy_ints(g, p)), m) for g, m in facs)
        got = sorted((tuple(ints(g)), m) for g, m in poly_factor(f))
        assert got == want, f
        assert int(lc) % p == f.lc.as_int()


@pytest.mark.parametrize("p", PRIMES)
def test_is_irreducible_agrees_with_sympy(p):
    for f in samples(p, 60):
        assert is_irreducible(f) == to_sympy(f, p).is_irreducible, f


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_agrees_with_sympy(p):
    k = ff_ctx(p)
    rng = random.Random(2000 + p)
    for i in range(30):
        # every other pair shares a random factor
        c = random_poly(k, rng, rng.randrange(1, 4)) if i % 2 \
            else Poly.one(k)
        a = random_poly(k, rng, rng.randrange(1, 6)) * c
        b = random_poly(k, rng, rng.randrange(1, 6)) * c
        want = sympy_monic(to_sympy(a, p).gcd(to_sympy(b, p)), p)
        assert ints(a.gcd(b)) == want, (a, b)


def sylvester_resultant(a: Poly, b: Poly, p: int) -> int:
    """Res(a, b) mod p as the determinant of the Sylvester matrix.

    This is the definition itself.  sympy 1.14's own resultant flips the
    sign when deg a < deg b and deg a * deg b is odd (it gives
    Res(x + 3, x^3 + 1) = 26, where the determinant is -26), so it is not
    used as the oracle.
    """
    m, n = a.degree, b.degree
    if m + n == 0:
        return 1
    fa, fb = ints(a)[::-1], ints(b)[::-1]
    rows = [[0] * i + fa + [0] * (n - 1 - i) for i in range(n)] \
        + [[0] * i + fb + [0] * (m - 1 - i) for i in range(m)]
    return int(sympy.Matrix(rows).det()) % p


@pytest.mark.parametrize("p", PRIMES)
def test_resultant_agrees_with_sylvester_determinant(p):
    k = ff_ctx(p)
    rng = random.Random(3000 + p)
    for i in range(30):
        # every third pair shares a linear factor: resultant 0
        c = random_poly(k, rng, 1) if i % 3 == 0 else Poly.one(k)
        a = random_poly(k, rng, rng.randrange(0, MAX_DEGREE)) * c
        b = random_poly(k, rng, rng.randrange(0, MAX_DEGREE)) * c
        got = a.resultant(b)
        assert (0 if got.is_zero() else got.as_int()) == \
            sylvester_resultant(a, b, p), (a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_mul_trunc_agrees_with_sympy_gf_mul(p):
    # gf_mul lists coefficients high first and drops leading zeros; dense
    # and half-zero operands of 1 to 70 terms cross every product path
    # of a prime field: one-term factors, bytes, schoolbook and Kronecker
    k = ff_ctx(p)
    rng = random.Random(7000 + p)
    for i in range(60):
        a, b = ([rng.randrange(p) if i % 2 and rng.random() < 0.5
                 else rng.randrange(1, p) for _ in range(rng.randint(1, 70))]
                for _ in range(2))
        n = rng.randint(1, len(a) + len(b) + 2)
        want = gf_mul([ZZ(c) for c in reversed(a)],
                      [ZZ(c) for c in reversed(b)], p, ZZ)[::-1]
        want = [int(c) for c in want[:n]] + [0] * (n - len(want))
        assert k.mul_trunc(a, b, n) == want, (p, a, b, n)


# F_3 ... F_65521 have exp/log tables; F_65537 and F_1048573 lie above
# TABLE_BOUND and take the baby-step/giant-step path
@pytest.mark.parametrize("p,tables", [(3, True), (5, True), (7, True),
                                      (65521, True), (65537, False),
                                      (1048573, False)])
def test_dlog_enc_agrees_with_sympy_discrete_log(p, tables):
    k = ff_ctx(p)
    assert (k.log is not None) == tables
    g = k.generator_enc
    rng = random.Random(4000 + p)
    encs = {1, g, p - 1} | {rng.randrange(1, p) for _ in range(37)}
    for enc in sorted(encs):
        # over F_p an element's encoding is its integer 0..p-1
        assert k.dlog_enc(enc) == sympy.ntheory.discrete_log(p, enc, g), enc


@pytest.mark.parametrize("p,prec", [(q, prec) for make, q, prec in ROOT_CASES
                                    if make is padic_ctx])
def test_principal_unit_root_agrees_with_sympy_nthroot_mod(p, prec):
    # the same units as test_local's ROOT_CASES test; of the ell-th roots
    # of u mod p^N, the one in U_1 is the one that is 1 mod p
    ctx = padic_ctx(p, prec)
    xs, ells = root_samples(ctx, p * 1000 + prec)
    for x in xs:
        mod = p ** x.prec
        for ell in ells:
            want = [r for r in sympy.ntheory.nthroot_mod(
                x.unit, ell, mod, all_roots=True) if r % p == 1]
            assert [principal_unit_root(ctx, x, ell).unit] == want, (x, ell)


def _split_off_p(p: int, rng):
    """(alpha, u, p^alpha * u) for a random alpha in 0..2 and a random
    signed u prime to p."""
    alpha = rng.randrange(3)
    u = 0
    while u % p == 0:
        u = rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6)
    return alpha, u, p ** alpha * u


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 1048573])
def test_odd_p_hilbert_matches_legendre_symbols(p):
    # for a = p^alpha u and b = p^beta v, the quadratic Hilbert symbol is
    # (-1)^(alpha beta (p-1)/2) (u/p)^beta (v/p)^alpha (Serre, A Course in
    # Arithmetic, ch. III); Euler's criterion reads it off hilbert's tame
    # value; 1048573 is the largest prime below FIELD_BOUND = 2^20
    ctx = padic_ctx(p, 8)
    rng = random.Random(3000 + p)
    for _ in range(60):
        alpha, u, a = _split_off_p(p, rng)
        beta, v, b = _split_off_p(p, rng)
        h = hilbert(ctx, ctx.from_int(a), ctx.from_int(b))
        euler = 1 if (h ** ((p - 1) // 2)).is_one() else -1
        want = ((-1) ** (alpha * beta * (p - 1) // 2)
                * sympy.legendre_symbol(u % p, p) ** beta
                * sympy.legendre_symbol(v % p, p) ** alpha)
        assert euler == want, (a, b)
