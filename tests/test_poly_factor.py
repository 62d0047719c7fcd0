"""Univariate polynomials and factorization over finite fields."""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from milnorforge.arith.factor import is_irreducible, poly_factor
from milnorforge.arith.finite_field import SCHOOLBOOK_LEN, ff_ctx, ff_ctx_q
from milnorforge.arith.local import laurent_ctx
from milnorforge.arith.poly import Poly, _power
from milnorforge.errors import MilnorForgeError, ZeroPolynomial
from milnorforge.ratfunc import QuotCtx, RatFuncCtx


def P(k, ints):
    return Poly.from_ints(k, ints)


def test_division_with_remainder():
    k = ff_ctx(5)
    a = P(k, [1, 2, 0, 3, 4])
    b = P(k, [2, 1, 1])
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_zero_division_raises():
    k = ff_ctx(3)
    with pytest.raises(ZeroPolynomial):
        divmod(P(k, [1, 1]), Poly.zero(k))


def test_gcd_of_products_contains_common_factor():
    k = ff_ctx(7)
    f = P(k, [1, 1])       # t + 1
    a = f * P(k, [2, 0, 1])
    b = f * P(k, [3, 1])
    g = a.gcd(b)
    assert (a % g).is_zero() and (b % g).is_zero()
    assert (g % f.monic()).is_zero()


def test_xgcd_bezout_identity():
    k = ff_ctx(5)
    a = P(k, [1, 0, 2, 1])
    b = P(k, [3, 1, 1])
    g, s, t = a.xgcd(b)
    assert s * a + t * b == g


def test_resultant_detects_common_roots():
    k = ff_ctx(7)
    # t - 2 and t^2 - 4 share the root 2: resultant vanishes
    assert (P(k, [-2, 1]).resultant(P(k, [-4, 0, 1]))).is_zero()
    # t - 2 and t - 3 do not
    assert not (P(k, [-2, 1]).resultant(P(k, [-3, 1]))).is_zero()


def test_resultant_of_linears_is_difference_of_roots():
    k = ff_ctx(11)
    for a in range(11):
        for b in range(11):
            # Res(t - a, t - b) = a - b in this convention
            r = P(k, [-a, 1]).resultant(P(k, [-b, 1]))
            assert r == k.from_int(a - b)


def test_frozen_factorization_square_over_f2():
    k = ff_ctx(2)
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2 over F_2
    f = P(k, [1, 0, 1, 0, 1])
    assert poly_factor(f) == [(P(k, [1, 1, 1]), 2)]


def test_frozen_factorization_split_over_f5():
    k = ff_ctx(5)
    # t^2 - 1 = (t + 1)(t + 4) over F_5
    f = P(k, [-1, 0, 1])
    factors = poly_factor(f)
    assert sorted((p.serialize(), m) for p, m in factors) == sorted(
        [(P(k, [1, 1]).serialize(), 1), (P(k, [4, 1]).serialize(), 1)])


@pytest.mark.parametrize("ints,expect", [
    ([1, 1, 1], True),    # t^2 + t + 1 irreducible over F_2
    ([1, 0, 1], False),   # t^2 + 1 = (t+1)^2 over F_2
    ([1, 1, 0, 0, 1], True),  # t^4 + t + 1 irreducible over F_2
])
def test_irreducibility_over_f2(ints, expect):
    k = ff_ctx(2)
    assert is_irreducible(P(k, ints)) is expect


def _factorization_irreducible(f):
    """The factorization-based test is_irreducible replaced: one factor of
    multiplicity one."""
    if f.degree <= 0:
        return False
    if f.degree == 1:
        return True
    facs = poly_factor(f)
    return len(facs) == 1 and facs[0][1] == 1


def _monics(k, d):
    for low in itertools.product(list(k.elements()), repeat=d):
        yield Poly(k, list(low) + [k.one()])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_is_irreducible_on_every_monic_up_to_degree_6(q):
    # a monic is reducible iff it is a product of two monics of degree >= 1;
    # the factorization-based test is compared on all of them for q <= 3
    # and on a seeded sample for q = 4, 5, where it takes half a minute
    k = ff_ctx_q(q)
    by_degree = {d: list(_monics(k, d)) for d in range(1, 7)}
    products = {(g * h).coeffs for da in range(1, 4)
                for db in range(da, 7 - da)
                for g in by_degree[da] for h in by_degree[db]}
    rng = random.Random(q)
    for d, fs in by_degree.items():
        for f in fs:
            irreducible = is_irreducible(f)
            assert irreducible is (f.coeffs not in products), f
            if q <= 3 or rng.random() < 0.02:
                assert irreducible is _factorization_irreducible(f), f


def test_is_irreducible_agrees_with_factorization_over_f9():
    k = ff_ctx_q(9)
    rng = random.Random(9)
    for _ in range(60):
        d = rng.randint(1, 10)
        f = Poly(k, [k.random_element(rng) for _ in range(d)]
                 + [k.random_nonzero(rng)])  # not monic in general
        assert is_irreducible(f) is _factorization_irreducible(f), f


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_squares_and_equal_degree_products_are_reducible(q):
    # g*h with deg g = deg h = n/2 meets the walk's first gcd at d = n/2
    # with the whole of f: is_irreducible compares d with deg f, not deg g
    k = ff_ctx_q(q)
    for d in (1, 2, 3):
        irr = [f for f in _monics(k, d) if _factorization_irreducible(f)][:4]
        for g, h in itertools.combinations_with_replacement(irr, 2):
            assert not is_irreducible(g * h), (g, h)
            assert not _factorization_irreducible(g * h), (g, h)


def test_factorization_reassembles_and_respects_multiplicity():
    rng = random.Random(11)
    k = ff_ctx(3)
    for _ in range(25):
        f = Poly(k, [k.random_element(rng) for _ in range(rng.randint(1, 6))])
        if f.is_zero() or f.is_const():
            continue
        f = f.monic()
        prod = Poly.one(k)
        for p, m in poly_factor(f):
            assert is_irreducible(p)
            prod = prod * p ** m
        assert prod == f


@settings(max_examples=60)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_degree_of_product_adds(a, b):
    k = ff_ctx(5)
    f, g = P(k, a), P(k, b)
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).degree == f.degree + g.degree


def test_eval_and_compose_agree():
    k = ff_ctx(7)
    f = P(k, [1, 2, 3])
    g = P(k, [4, 5])
    h = Poly.zero(k)  # f(g) by Horner's rule on polynomials
    for i in range(f.degree, -1, -1):
        h = h * g + Poly.const(k, f.coeff(i))
    for n in range(7):
        x = k.from_int(n)
        assert h.eval(x) == f.eval(g.eval(x))


_LOSE_A_FACTOR = """
import traceback
from milnorforge.arith import factor
from milnorforge.arith.finite_field import ff_ctx, ff_ctx_q
from milnorforge.arith.poly import Poly
from milnorforge.errors import SelfCheckFailed
real = factor._factor_squarefree
factor._factor_squarefree = lambda f, rng: real(f, rng)[:-1]
try:
    factor.poly_factor(Poly.from_ints(ff_ctx(3), [0, 1, 1]))  # X (X + 1)
except SelfCheckFailed as e:
    print("raised in", traceback.extract_tb(e.__traceback__)[-1].name, e)
"""


def test_factorization_remultiply_check_runs_under_python_O(run_python_O):
    out = run_python_O(_LOSE_A_FACTOR)
    assert out.returncode == 0, out.stderr
    assert "raised in poly_factor factorization failed" in out.stdout


# --- the one square-and-multiply ---------------------------------------------

def _repeated(x, k, one, mul=operator.mul):
    out = one
    for _ in range(k):
        out = mul(out, x)
    return out


def test_power_agrees_with_repeated_products():
    F9 = ff_ctx(3, 2)
    A = laurent_ctx(9, 6)
    F = RatFuncCtx(ff_ctx(3))
    t = F.gen()
    B = QuotCtx(F, Poly(F, [-t, F.zero(), F.one()]))  # F_3(t)(sqrt t)
    k3 = ff_ctx(3)
    m = P(k3, [2, 1, 0, 1])  # X^3 + X + 2
    rng = random.Random(12)
    x_laurent = A.random_unit(rng) * A.uniformizer()
    x_ratfunc = (t * t + F.one()) / (t + F.from_int(2))
    x_quot = B.theta() + B.from_base(t)
    x_xpoly = Poly(F, [t, F.one() + t])
    x_mod = P(k3, [1, 2, 2, 1, 1])
    enc = F9.from_exp(5).enc
    for k in range(21):
        assert F9.pow_enc(enc, k) == _repeated(enc, k, 1, F9.mul_enc)
        assert (x_laurent ** k).serialize() == \
            _repeated(x_laurent, k, A.one()).serialize()
        assert x_ratfunc ** k == _repeated(x_ratfunc, k, F.one())
        assert x_quot ** k == _repeated(x_quot, k, B.one())
        assert x_xpoly ** k == _repeated(x_xpoly, k, Poly.one(F))
        assert x_mod.pow_mod(k, m) == _repeated(
            x_mod, k, Poly.one(k3), lambda a, b: a * b % m)
        products = []

        def counted(a, b):
            products.append(1)
            return a * b

        assert _power(7, k, lambda: 1, counted) == 7 ** k
        # left to right: one square per bit after the leading one, one
        # product per further set bit, so x ** 1 costs none
        assert len(products) == (k.bit_length() - 1 + bin(k).count("1") - 1
                                 if k else 0)


def _strip_by_divmod(p, d):
    # the loop Poly.strip replaced, at each of its three call sites
    v = 0
    while True:
        q, r = divmod(p, d)
        if not r.is_zero():
            return v, p
        p, v = q, v + 1


def test_strip_agrees_with_repeated_divmod():
    rng = random.Random(14)
    F = RatFuncCtx(ff_ctx(3))
    for k in (ff_ctx(2), ff_ctx(3), ff_ctx(2, 2), ff_ctx(5), F):
        for _ in range(12):
            d = Poly(k, [k.random_element(rng) for _ in range(rng.randint(1, 2))]
                     + [k.random_nonzero(rng)])
            u = Poly(k, [k.random_element(rng) for _ in range(rng.randint(0, 3))]
                     + [k.random_nonzero(rng)])
            for p in (u, d ** rng.randint(1, 3) * u):  # d may not divide u
                v, rest = p.strip(d)
                assert (v, rest) == _strip_by_divmod(p, d)
                assert d ** v * rest == p and not (rest % d).is_zero()
        # self = d^k * u with d prime to u: exactly k comes off
        x = Poly.x(k)
        u = x + Poly.one(k)
        assert (x ** 3 * u).strip(x) == (3, u)
        assert u.strip(x) == (0, u)


def test_strip_rejects_zero_and_constant_inputs():
    # both once looped forever: every power divides 0, and a constant
    # divides everything
    k = ff_ctx(3)
    x = Poly.x(k)
    with pytest.raises(ZeroPolynomial):
        Poly.zero(k).strip(x)
    for d in (Poly.zero(k), Poly.one(k), P(k, [2])):
        with pytest.raises(MilnorForgeError):
            x.strip(d)


# --- encoded Poly against coefficientwise FFElement references -------------
#
# A reference polynomial is a list of FFElement coefficients, lowest degree
# first, without trailing zeros.  The references restate each operation
# coefficient by coefficient on FFElement arithmetic, independently of the
# encoding kernels that a Poly over a finite field runs on.

POLY_Q = (2, 3, 4, 8, 9, 25, 243, 256, 3 ** 11, 65537, 2 ** 20)
UNTABLED_POLY_Q = (3 ** 11, 65537, 2 ** 20)  # above TABLE_BOUND


def ref_trim(r):
    r = list(r)
    while r and r[-1].is_zero():
        r.pop()
    return r


def ref_add(k, r, s):
    n = max(len(r), len(s))
    pad = [k.zero()] * n
    return ref_trim([a + b for a, b in zip((r + pad)[:n], (s + pad)[:n])])


def ref_neg(r):
    return [-a for a in r]


def ref_mul(k, r, s):
    if not r or not s:
        return []
    out = [k.zero()] * (len(r) + len(s) - 1)
    for i, a in enumerate(r):
        for j, b in enumerate(s):
            out[i + j] = out[i + j] + a * b
    return ref_trim(out)


def ref_divmod(k, r, s):
    rem, quot = list(r), [k.zero()] * max(len(r) - len(s) + 1, 0)
    inv = s[-1].inverse()
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(s) - 1] * inv
        quot[i] = c
        for j, b in enumerate(s):
            rem[i + j] = rem[i + j] - c * b
    return ref_trim(quot), ref_trim(rem[:len(s) - 1] if quot else rem)


def ref_monic(r):
    if not r:
        return r
    inv = r[-1].inverse()
    return [a * inv for a in r]


def ref_xgcd(k, r, s):
    a, b = r, s
    sa, sb, ta, tb = [k.one()], [], [], [k.one()]
    while b:
        q, rem = ref_divmod(k, a, b)
        a, b = b, rem
        sa, sb = sb, ref_add(k, sa, ref_neg(ref_mul(k, q, sb)))
        ta, tb = tb, ref_add(k, ta, ref_neg(ref_mul(k, q, tb)))
    if not a:
        return a, sa, ta
    c = [a[-1].inverse()]
    return ref_monic(a), ref_mul(k, sa, c), ref_mul(k, ta, c)


def ref_det(k, rows):
    """Determinant by Gaussian elimination over the field."""
    rows = [list(row) for row in rows]
    det = k.one()
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows))
                    if not rows[i][col].is_zero()), None)
        if piv is None:
            return k.zero()
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for i in range(col + 1, len(rows)):
            f = rows[i][col] * inv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def ref_resultant(k, r, s):
    """The determinant of the Sylvester matrix (rows high degree first)."""
    if not r or not s:
        return k.zero()
    m, n = len(r) - 1, len(s) - 1
    ra, sb = r[::-1], s[::-1]
    z = [k.zero()]
    return ref_det(k, [z * i + ra + z * (n - 1 - i) for i in range(n)]
                   + [z * i + sb + z * (m - 1 - i) for i in range(m)])


def ref_eval(k, r, x):
    acc = k.zero()
    for a in reversed(r):
        acc = acc * x + a
    return acc


def ref_derivative(k, r):
    out = []
    for i, a in enumerate(r[1:], 1):
        acc = k.zero()
        for _ in range(i):
            acc = acc + a
        out.append(acc)
    return ref_trim(out)


def ref_serialize(r):
    if not r:
        return "0"
    return " + ".join(a.serialize() if i == 0 else f"{a.serialize()}*t^{i}"
                      for i, a in enumerate(r) if not a.is_zero())


def _ref_polys(k, rng, count, max_deg):
    """Zero, a constant, random references with zero coefficients, and a
    product with a repeated factor, so gcds and strips are nontrivial."""
    def rand(deg):
        return [k.random_element(rng) for _ in range(deg)] \
            + [k.random_nonzero(rng)]
    refs = [[], rand(0)] + [rand(rng.randint(1, max_deg)) for _ in range(count)]
    common = rand(1)
    refs.append(ref_mul(k, ref_mul(k, refs[-1], common), common))
    refs.append(ref_mul(k, rand(1), common))
    return refs


def assert_poly(k, f, r):
    assert f.coeffs == tuple(a.enc for a in r)
    assert f == Poly(k, r)


@pytest.mark.parametrize("q", POLY_Q)
def test_poly_operations_match_references(q):
    k = ff_ctx_q(q)
    rng = random.Random(4000 + q)
    small = q in UNTABLED_POLY_Q  # every FFElement sum there costs a dlog
    refs = _ref_polys(k, rng, 1 if small else 3, 2 if small else 5)
    if small:
        refs = refs[:1] + refs[2:]
    polys = [Poly(k, r) for r in refs]
    points = [k.zero(), k.one(), k.random_nonzero(rng)]
    for f, r in zip(polys, refs):
        assert_poly(k, f, r)
        assert_poly(k, -f, ref_neg(r))
        assert_poly(k, f.derivative(), ref_derivative(k, r))
        assert_poly(k, f.monic(), ref_monic(r))
        assert f.serialize() == ref_serialize(r)
        assert [f.coeff(i) for i in range(len(r) + 1)] == r + [k.zero()]
        for x in points:
            assert f.eval(x) == ref_eval(k, r, x)
        if r:
            assert f.lc == r[-1]
            c = k.random_nonzero(rng)
            assert_poly(k, f.scale(c), ref_mul(k, r, [c]))
        for g, s in zip(polys, refs):
            assert_poly(k, f + g, ref_add(k, r, s))
            assert_poly(k, f - g, ref_add(k, r, ref_neg(s)))
            assert_poly(k, f * g, ref_mul(k, r, s))
            assert_poly(k, f.gcd(g), ref_xgcd(k, r, s)[0])
            for got, want in zip(f.xgcd(g), ref_xgcd(k, r, s)):
                assert_poly(k, got, want)
            assert f.resultant(g) == ref_resultant(k, r, s)
            if not s:
                continue
            quot, rem = divmod(f, g)
            want_q, want_r = ref_divmod(k, r, s)
            assert_poly(k, quot, want_q)
            assert_poly(k, rem, want_r)
            for e in (0, 1, 3):
                want = [k.one()]
                for _ in range(e):
                    want = ref_divmod(k, ref_mul(k, want, r), s)[1]
                assert_poly(k, f.pow_mod(e, g), want)
            if r and len(s) > 1:
                v, rest = 0, r
                while True:
                    quot_r, rem_r = ref_divmod(k, rest, s)
                    if rem_r:
                        break
                    v, rest = v + 1, quot_r
                got_v, got_rest = f.strip(g)
                assert got_v == v
                assert_poly(k, got_rest, rest)


@pytest.mark.parametrize("q", POLY_Q)
def test_poly_products_match_references_across_the_schoolbook_bound(q):
    # mul_trunc packs a prime field's product one byte per degree while
    # the sparser factor's nonzero terms, at least 2, times (p-1)^2 stay
    # below 256 (F_2 to F_7 here), keeps one-term factors schoolbook, and
    # otherwise multiplies schoolbook up to SCHOOLBOOK_LEN * f nonzero
    # terms and by Kronecker substitution above; untabled extension fields
    # always take the Kronecker product
    k = ff_ctx_q(q)
    rng = random.Random(5000 + q)
    edge = SCHOOLBOOK_LEN * k.f
    lengths = (1, 3) if q in UNTABLED_POLY_Q else (1, 3, edge, edge + 1)
    for la in lengths:
        for lb in lengths:
            r, s = ([k.random_element(rng) for _ in range(n - 1)]
                    + [k.random_nonzero(rng)] for n in (la, lb))
            assert_poly(k, Poly(k, r) * Poly(k, s), ref_mul(k, r, s))


def test_poly_equality_tells_fields_apart():
    # equal encodings over different fields: (1, 1) is 1 + t over F_3 and
    # over F_9, two different polynomials
    a, b = Poly.from_ints(ff_ctx(3), [1, 1]), Poly.from_ints(ff_ctx(3, 2), [1, 1])
    assert a.coeffs == b.coeffs
    assert a != b and b != a
    assert len({a, b}) == 2
    assert a == Poly.from_ints(ff_ctx(3), [4, 1])
    assert len({a, Poly.from_ints(ff_ctx(3), [4, 1])}) == 1
