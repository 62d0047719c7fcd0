"""p-adic and Laurent-series arithmetic, lifts from the residue field,
precision tracking.

Equality of inexact elements means indistinguishability at the shared
working precision; sums that cancel below the available absolute precision
become approximate zeros that remember how far they are known to vanish.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from milnorforge.arith.finite_field import SCHOOLBOOK_LEN, ff_ctx_q
from milnorforge.arith.laurent import LaurentSeries
from milnorforge.arith.local import (
    laurent_ctx,
    padic_ctx,
    principal_unit_root,
    teichmuller,
    unit_decompose,
)
from milnorforge.arith.padic import PadicNumber
from milnorforge.arith.poly import Poly, _power
from milnorforge.ratfunc import QuotCtx
from milnorforge.errors import (NewtonConditionFails, NotAUnit, PatternMismatch,
                               ZeroElement)


# --- p-adic ring structure ------------------------------------------------

def test_padic_from_int_valuation_and_unit():
    x = PadicNumber.from_int(5, 8, 150)  # 150 = 6 * 5^2
    assert x.val == 2 and x.unit == 6


def test_padic_from_rational():
    two = PadicNumber.from_int(7, 6, 2)
    x = PadicNumber.from_int(7, 6, 1) / two  # 1/2 in Z_7
    assert x * two == PadicNumber.from_int(7, 6, 1)


@settings(max_examples=80)
@given(st.integers(-400, 400), st.integers(-400, 400), st.integers(-400, 400))
def test_padic_matches_integer_arithmetic(a, b, c):
    mk = lambda n: PadicNumber.from_int(3, 10, n)
    assert mk(a) + mk(b) == mk(a + b)
    assert mk(a) * mk(b) == mk(a * b)
    assert mk(a) * (mk(b) + mk(c)) == mk(a * b) + mk(a * c)
    assert mk(a) - mk(a) == mk(0)


def test_padic_inverse_of_unit():
    x = PadicNumber.from_int(5, 8, 7)
    assert (x * x.inverse()).is_one()
    with pytest.raises(NotAUnit):
        PadicNumber.zero(5, 8).inverse()


# --- precision soundness --------------------------------------------------
#
# Z_5 and F_5[[t]] share one precision model (localnum.LocalNumber), so each
# check runs in both rings with pi in place of 5.  The test names stay those
# of the p-adic originals.

def _rings():
    """(ctx, pi) for Z_5 and F_5[[t]] at precision 4."""
    return [(ctx, ctx.uniformizer())
            for ctx in (padic_ctx(5, 4), laurent_ctx(5, 4))]


def test_cancellation_produces_bounded_zero():
    for p, pi in _rings():
        x = p.one() + pi ** 4  # indistinguishable from 1 at precision 4
        d = x - p.one()
        assert d.is_zero()
        assert d.zero_prec == 4  # known to vanish only below pi^4


def test_bounded_zero_does_not_claim_unknown_digits():
    # (x - 1) + pi^6 must not resurrect digits the cancellation never knew.
    for p, pi in _rings():
        d = (p.one() + pi ** 4) - p.one()
        s = d + pi ** 6
        assert s.is_zero()
        assert s.zero_prec == 4


def test_bounded_zero_clips_smaller_valuation_summand():
    for p, pi in _rings():
        d = (p.one() + pi ** 4) - p.one()  # zero up to pi^4
        for s in (d + pi, pi + d):
            assert not s.is_zero()
            assert s.val == 1
            assert s.prec == 3  # absolute precision stays capped at pi^4


def test_bounded_zero_scales_under_multiplication():
    for p, pi in _rings():
        d = (p.one() + pi ** 4) - p.one()
        prod = d * pi ** 2
        assert prod.is_zero() and prod.zero_prec == 6
        sq = d ** 2
        assert sq.is_zero() and sq.zero_prec == 8


def test_exact_zero_annihilates():
    for p, _ in _rings():
        z = p.zero()
        assert (z * p.from_int(7)).zero_prec is None
        assert (z + p.from_int(7)) == p.from_int(7)


def test_equality_is_indistinguishability_at_working_precision():
    for p, pi in _rings():
        assert p.one() + pi ** 4 == p.one()
        assert p.one() + pi ** 3 != p.one()


def test_hash_agrees_with_equality():
    # each pair compares equal at the shared precision, so a set keeps one
    base = ff_ctx_q(5)
    t = laurent_ctx(5, 8).uniformizer()
    one_plus_t5 = laurent_ctx(5, 8).one() + t ** 5
    z8, z4 = padic_ctx(5, 8), padic_ctx(5, 4)
    pairs = [
        (PadicNumber(5, 8, 0, 7), PadicNumber(5, 4, 0, 7)),
        (one_plus_t5, LaurentSeries.from_int(base, 4, 1)),
        (Poly(z8, [z8.from_int(7), z8.one()]),
         Poly(z8, [z4.from_int(7), z8.one()])),
        (QuotCtx(z8, Poly(z8, [z8.from_int(-7), z8.zero(), z8.one()])),
         QuotCtx(z8, Poly(z8, [z4.from_int(-7), z8.zero(), z8.one()]))),
    ]
    for x, y in pairs:
        assert x == y
        assert len({x, y}) == 1


def test_laurent_cancellation_tracks_absolute_precision():
    L = laurent_ctx(3, 4)
    t = L.uniformizer()
    x = L.one() + t ** 4
    d = x - L.one()
    assert d.is_zero() and d.zero_prec == 4
    s = d + t
    assert s.val == 1 and s.prec == 3


def test_mixed_valuation_sum_limits_absolute_precision():
    # v=2 at rel prec 4 (abs 6) plus v=0 at rel prec 6 (abs 6): abs prec 6.
    x = PadicNumber(5, 4, 2, 3)
    y = PadicNumber(5, 6, 0, 1)
    s = x + y
    assert s.val == 0 and s.val + s.prec == 6


# --- Laurent series -------------------------------------------------------

def test_laurent_unit_times_inverse_is_one():
    L = laurent_ctx(5, 8)
    t = L.uniformizer()
    x = L.from_int(2) + t + t ** 3
    assert (x * x.inverse()).is_one()


# --- the Kronecker kernel against schoolbook references --------------------


def schoolbook_mul(base, a, b, n):
    """Schoolbook truncated product: the reference for mul_trunc."""
    out = [base.zero()] * n
    for i, ai in enumerate(a[:n]):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b[:n]):
            if i + j >= n:
                break
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


def recurrence_inverse(base, coeffs, prec):
    """Coefficient recurrence for 1/a: the reference for the Newton inverse."""
    c0inv = coeffs[0].inverse()
    out = [c0inv] + [base.zero()] * (prec - 1)
    for n in range(1, prec):
        acc = base.zero()
        for k in range(1, n + 1):
            ck = coeffs[k] if k < len(coeffs) else base.zero()
            acc = acc + ck * out[n - k]
        out[n] = -(c0inv * acc)
    return out


TABLED_Q = (2, 3, 4, 8, 9, 25, 27, 243, 256)
UNTABLED_Q = (3 ** 11, 65537)  # above TABLE_BOUND: no exp/log/Zech tables
# the product kernel's edge cases run in these fields: prime, tabled
# extension and untabled extension, with f from 1 to 20
KERNEL_Q = (2, 3, 9, 16, 243, 3 ** 11, 65537, 2 ** 20)
# prime fields whose byte products are tested on both sides of the bound
# m (p-1)^2 < 256; F_11 also packs (m = 2), and the sympy oracle covers it
BYTE_Q = (2, 3, 5, 7)


def encs(xs):
    """The encodings of a list of FFElements: mul_trunc's and a Laurent
    series' coefficient form."""
    return [c.enc for c in xs]


def _random_coeffs(base, rng, length, zero_share):
    return [base.zero() if rng.random() < zero_share
            else base.random_nonzero(rng) for _ in range(length)]


def _length_cases(rng, max_len, count):
    """(len a, len b, n) triples: n = 1, operands longer than n, products
    shorter than n, and random lengths up to max_len."""
    fixed = [(1, 1, 1), (max_len, max_len, 1), (max_len, 3, 2), (2, 3, max_len),
             (1, max_len, max_len), (max_len, max_len, max_len)]
    return fixed + [(rng.randint(1, max_len), rng.randint(1, max_len),
                     rng.randint(1, max_len)) for _ in range(count)]


def _one_term(base, rng, length, pos):
    """A coefficient list with one nonzero term, at pos."""
    out = [base.zero()] * length
    out[pos] = base.random_nonzero(rng)
    return out


def _edge_cases(base, rng):
    """(a, b, n) at n = 1, SCHOOLBOOK_LEN * f and one more, on both sides
    of the schoolbook bound: operands longer than n, dense, with zero
    coefficients, and one-term factors with zeros on both sides."""
    edge = SCHOOLBOOK_LEN * base.f
    # the FFElement reference is slow past the tables: sparse operands there
    shares = (0.0, 0.5) if base.log is not None or base.f == 1 else (0.9,)
    for n in (1, edge, edge + 1):
        for share in shares:
            for la, lb in ((n, n), (n + 3, n + 5), (n, 2)):
                yield (_random_coeffs(base, rng, la, share),
                       _random_coeffs(base, rng, lb, share), n)
        for pos in {0, n // 2, n - 1}:
            dense = _random_coeffs(base, rng, n + 2, 0.0)
            single = _one_term(base, rng, n + 2, pos)
            yield dense, single, n
            yield single, dense, n
        # edge + 1 nonzero terms on one side, one on the other
        yield (_random_coeffs(base, rng, edge + 1, 0.0),
               _one_term(base, rng, 3, 1), n)


def _byte_edge_cases(base, rng):
    """(a, b, n) on both sides of the byte bound of a prime field: the
    sparser operand, cut to n, has m terms with m * (p-1)^2 = 255 at the
    most (m = 255, 63, 15, 7 for p = 2, 3, 5, 7) or above it.  All-(p-1)
    operands fill every byte of the product to its bound.  n runs past
    len a + len b - 1 (zero padding) and below both lengths; operands
    have zero tails, and one-term factors sit on either side."""
    top = base.minus_one()
    bound = 255 // (base.p - 1) ** 2
    for m in (bound, bound + 1):
        full = [top] * m
        dense = _random_coeffs(base, rng, m, 0.0)
        tailed = _random_coeffs(base, rng, m, 0.0) + [base.zero()] * 4
        for n in (m, 2 * m - 1, 2 * m + 3, m // 2 + 1):
            yield full, full, n
            yield dense, tailed, n
            yield tailed, _random_coeffs(base, rng, m + 5, 0.5), n
        for pos in (0, m - 1):
            single = _one_term(base, rng, m + 2, pos)
            yield full, single, 2 * m
            yield single, full, m
    # operands past the bound that n cuts below it
    yield [top] * (bound + 9), [top] * (bound + 9), bound
    yield [top] * 2, [top] * 2, 3  # the smallest byte product


@pytest.mark.parametrize("q", sorted(set(TABLED_Q + UNTABLED_Q + KERNEL_Q
                                         + BYTE_Q)))
def test_mul_trunc_matches_schoolbook(q):
    base = ff_ctx_q(q)
    rng = random.Random(q)
    tabled = q in TABLED_Q
    cases = list(_edge_cases(base, rng)) if q in KERNEL_Q else []
    if q in BYTE_Q:
        cases += _byte_edge_cases(base, rng)
    for la, lb, n in _length_cases(rng, 40 if tabled else 5,
                                   30 if tabled else 4):
        for zero_share in (0.0, 0.5, 1.0):
            cases.append((_random_coeffs(base, rng, la, zero_share),
                          _random_coeffs(base, rng, lb, zero_share), n))
    for a, b, n in cases:
        got = base.mul_trunc(encs(a), encs(b), n)
        assert got == encs(schoolbook_mul(base, a, b, n)), \
            (q, len(a), len(b), n, encs(a), encs(b))
        # a Laurent series passes its coefficients as a tuple
        assert base.mul_trunc(tuple(encs(a)), tuple(encs(b)), n) == got


@pytest.mark.parametrize("q", TABLED_Q + UNTABLED_Q)
def test_laurent_mul_and_inverse_match_schoolbook(q):
    base = ff_ctx_q(q)
    rng = random.Random(1000 + q)
    tabled = q in TABLED_Q
    for _ in range(12 if tabled else 2):
        pa, pb = (rng.randint(1, 40 if tabled else 6) for _ in range(2))
        ca = [base.random_nonzero(rng)] + _random_coeffs(base, rng, pa - 1, 0.3)
        cb = [base.random_nonzero(rng)] + _random_coeffs(base, rng, pb - 1, 0.3)
        x = LaurentSeries(base, pa, rng.randint(-3, 3), ca)
        y = LaurentSeries(base, pb, rng.randint(-3, 3), cb)
        prod = x * y
        n = min(pa, pb)
        assert prod.prec == n and prod.val == x.val + y.val
        assert list(prod.coeffs) == encs(schoolbook_mul(base, ca, cb, n))
        inv = x.inverse()
        assert inv.prec == pa and inv.val == -x.val
        assert list(inv.coeffs) == encs(recurrence_inverse(base, ca, pa))


# A reference series is (prec, val, FFElement coefficients of t^val ..
# t^(val+prec-1), zero_prec), with val None and no coefficients for a zero.
# The references below restate the precision model coefficient by
# coefficient on FFElement arithmetic, independently of the encoding
# kernels and of localnum.LocalNumber.


def ref_zero(prec, zero_prec=None):
    return (prec, None, [], zero_prec)


def ref_cut(base, r, prec):
    """A nonzero reference cut or padded with zeros to prec digits."""
    cs = r[2][:prec]
    return (prec, r[1], cs + [base.zero()] * (prec - len(cs)), None)


def ref_make(base, prec, val, coeffs):
    for shift, c in enumerate(coeffs):
        if not c.is_zero():
            return ref_cut(base, (prec, val + shift, coeffs[shift:], None), prec)
    return ref_zero(prec)


def ref_neg(r):
    return r if r[1] is None else (r[0], r[1], [-c for c in r[2]], None)


def ref_add(base, x, y):
    prec = min(x[0], y[0])
    if x[1] is None and y[1] is None:
        bounds = [b for b in (x[3], y[3]) if b is not None]
        return ref_zero(prec, min(bounds) if bounds else None)
    if x[1] is None or y[1] is None:
        z, v = (x, y) if x[1] is None else (y, x)
        if z[3] is None:
            return ref_cut(base, v, prec)
        if v[1] >= z[3]:
            return ref_zero(prec, z[3])
        return ref_cut(base, v, min(z[3] - v[1], prec))
    abs_prec = min(x[1] + x[0], y[1] + y[0])
    lo = min(x[1], y[1])
    digits = [base.zero()] * (abs_prec - lo)
    for r in (x, y):
        for i, c in enumerate(r[2]):
            if r[1] + i < abs_prec:
                digits[r[1] + i - lo] = digits[r[1] + i - lo] + c
    for shift, c in enumerate(digits):
        if not c.is_zero():
            return (len(digits) - shift, lo + shift, digits[shift:], None)
    return ref_zero(prec, abs_prec)


def ref_mul(base, x, y):
    prec = min(x[0], y[0])
    if x[1] is None or y[1] is None:
        if (x[1] is None and x[3] is None) or (y[1] is None and y[3] is None):
            return ref_zero(prec)
        if x[1] is None and y[1] is None:
            return ref_zero(prec, x[3] + y[3])
        z, v = (x, y) if x[1] is None else (y, x)
        return ref_zero(prec, z[3] + v[1])
    return (prec, x[1] + y[1], schoolbook_mul(base, x[2], y[2], prec), None)


def ref_pow(base, x, k):
    if k < 0:
        x = (x[0], -x[1], recurrence_inverse(base, x[2], x[0]), None)
        k = -k
    out = ref_cut(base, (x[0], 0, [base.one()], None), x[0])
    for _ in range(k):
        out = ref_mul(base, out, x)
    return out


def ref_serialize(q, r):
    if r[1] is None:
        return f"laurent({q},{r[0]}):0"
    digits = ",".join(str(c.enc) for c in r[2])
    return f"laurent({q},{r[0]}):t^{r[1]}*({digits})"


def assert_matches(base, x, r):
    """Every observable of a LaurentSeries against its reference."""
    prec, val, coeffs, zero_prec = r
    assert (x.prec, x.val, x.zero_prec) == (prec, val, zero_prec)
    assert x.coeffs == tuple(encs(coeffs))
    assert x.key() == (prec, val, tuple(encs(coeffs)))
    assert x.serialize() == ref_serialize(base.q, r)


def _random_refs(base, rng, count, max_prec):
    """Nonzero references (valuations -3..3 and one far off), exact and
    approximate zeros, and a near-negation whose sum with its partner
    cancels the leading coefficient."""
    refs = []
    for _ in range(count):
        prec = rng.randint(1, max_prec)
        refs.append((prec, rng.randint(-3, 3), [base.random_nonzero(rng)]
                     + _random_coeffs(base, rng, prec - 1, 0.3), None))
    x = refs[0]
    refs.append((x[0], x[1] + 40, x[2], None))
    if x[0] > 1:
        refs.append((x[0], x[1], [-x[2][0]]
                     + _random_coeffs(base, rng, x[0] - 1, 0.3), None))
    refs += [ref_zero(rng.randint(1, max_prec)),
             ref_zero(rng.randint(1, max_prec), rng.randint(-2, 6)),
             ref_zero(rng.randint(1, max_prec), rng.randint(-2, 6))]
    return refs


def _monomial_refs(base, other):
    """Monomials c t^v, c = 1 and c != 1 (where q > 2), v in {-2, 0, 3}, at
    precisions below, equal to and above other's, and a unit that is a
    monomial only below other's precision: its nonzero digits after the
    first lie beyond the precision of its product with other."""
    prec, zero = other[0], base.zero()
    consts = [base.one()] + ([base.gen()] if base.q > 2 else [])
    refs = [(p, v, [c] + [zero] * (p - 1), None)
            for v in (-2, 0, 3) for c in consts
            for p in (prec - 1, prec, prec + 1) if p >= 1]
    refs.append((prec + 2, 1, [base.gen()] + [zero] * (prec - 1)
                 + [base.gen(), base.one()], None))
    return refs


def _series(base, r):
    if r[1] is None:
        return LaurentSeries.zero(base, r[0], r[3])
    return LaurentSeries(base, r[0], r[1], r[2])


@pytest.mark.parametrize("q", TABLED_Q + UNTABLED_Q)
def test_laurent_operations_match_references(q):
    base = ff_ctx_q(q)
    rng = random.Random(2000 + q)
    tabled = q in TABLED_Q
    refs = _random_refs(base, rng, 5 if tabled else 2, 9 if tabled else 3)
    refs += _monomial_refs(base, refs[0])
    xs = [_series(base, r) for r in refs]
    # exponents with a second base-p digit, where the reference's k
    # products stay few (not over F_65537)
    p = base.p
    digit_ks = tuple(k for k in (p, p + 1, 2 * p + 1, p * p) if k <= 25)
    for x, r in zip(xs, refs):
        assert_matches(base, x, r)
        assert_matches(base, -x, ref_neg(r))
        if r[1] is not None:
            assert_matches(base, x.inverse(), ref_pow(base, r, -1))
        for k in ((0, 1, 2, 3, -1, -2) if r[1] is not None else (0, 1, 3)) \
                + digit_ks:
            assert_matches(base, x ** k, ref_pow(base, r, k))
        if r[1] is not None:
            for prec in (1, r[0] - 1, r[0] + 2):
                if prec >= 1:
                    assert_matches(base, x.truncate(prec),
                                   ref_cut(base, r, prec))
        for y, s in zip(xs, refs):
            assert_matches(base, x + y, ref_add(base, r, s))
            assert_matches(base, x - y, ref_add(base, r, ref_neg(s)))
            assert_matches(base, x * y, ref_mul(base, r, s))
    for _ in range(6 if tabled else 2):
        prec, val = rng.randint(1, 6), rng.randint(-3, 3)
        window = _random_coeffs(base, rng, rng.randint(1, 8), 0.5)
        assert_matches(base, LaurentSeries.make(base, prec, val, encs(window)),
                       ref_make(base, prec, val, window))


def test_laurent_power_by_digits_matches_square_and_multiply():
    # x ** k splits k >= p into base-p digits and Frobenius maps; plain
    # square-and-multiply on the same series must give the same text
    rng = random.Random(29)
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        base = ff_ctx_q(q)
        for _ in range(40):
            prec = rng.randint(1, 40)
            if rng.random() < 0.15:  # exact and approximate zeros
                x = LaurentSeries.zero(base, prec,
                                       rng.choice((None, rng.randint(-3, 9))))
            else:
                x = LaurentSeries(base, prec, rng.randint(-3, 3),
                                  [base.random_nonzero(rng)]
                                  + _random_coeffs(base, rng, prec - 1,
                                                   rng.choice((0.1, 0.6))))
            k = rng.randint(0 if x.is_zero() else -300, 300)
            one = partial(LaurentSeries.constant, base.one(), prec)
            ref = _power(x, k, one) if k >= 0 else \
                _power(x.inverse(), -k, one)
            got = x ** k
            assert (got.serialize(), got.prec, got.zero_prec) == \
                (ref.serialize(), ref.prec, ref.zero_prec), (q, prec, k)


def test_laurent_mul_by_approximate_zero_keeps_its_bound():
    base = ff_ctx_q(9)
    x = LaurentSeries(base, 8, 2, [base.gen()] * 8)
    z = LaurentSeries.zero(base, 8, 5)  # known to vanish below t^5 only
    for prod in (x * z, z * x):
        assert prod.is_zero() and prod.zero_prec == 7 and prod.prec == 8
    zz = z * LaurentSeries.zero(base, 6, 3)
    assert zz.is_zero() and zz.zero_prec == 8 and zz.prec == 6
    assert (x * LaurentSeries.zero(base, 8)).zero_prec is None


@pytest.mark.parametrize("prec", [1, 8, 35])  # 35: Hensel work at prec 16
@pytest.mark.parametrize("q", [2, 3, 9, 256, 65537])
def test_laurent_unit_times_inverse_is_one_at_precision(q, prec):
    base = ff_ctx_q(q)
    rng = random.Random(prec * q)
    for _ in range(3):
        coeffs = [base.random_nonzero(rng)] + \
            _random_coeffs(base, rng, prec - 1, 0.3)
        x = LaurentSeries(base, prec, rng.randint(-2, 2), coeffs)
        one = x * x.inverse()
        assert one.is_one() and one.prec == prec


def test_laurent_residue_of_unit():
    L = laurent_ctx(9, 6)
    x = L.from_int(2) + L.uniformizer()
    assert L.residue(x) == L.residue_field.from_int(2)
    with pytest.raises(NotAUnit):
        L.residue(L.uniformizer())


def test_laurent_parse_serialize_round_trip():
    L = laurent_ctx(3, 5)
    x = L.from_int(2) * L.uniformizer() ** -2 + L.one()
    assert L.parse(x.serialize()) == x


@pytest.mark.parametrize("ctx,text,expected", [
    # only the first min(text prec, ctx prec) digits are read, before the
    # leading zeros are dropped
    (laurent_ctx(9, 8), "laurent(9,2):t^0*(0,1,2)", "laurent(9,2):t^1*(1,0)"),
    (laurent_ctx(9, 2), "laurent(9,4):t^0*(0,1,2,3)",
     "laurent(9,2):t^1*(1,0)"),
    (laurent_ctx(3, 3), "laurent(3,5):t^-1*(0,0,2,1,1)",
     "laurent(3,3):t^1*(2,0,0)"),
    (laurent_ctx(3, 8), "laurent(3,2):t^0*(0,0,1)", "laurent(3,2):0"),
])
def test_laurent_parse_reads_only_the_precision_window(ctx, text, expected):
    assert ctx.parse(text).serialize() == expected


def test_padic_parse_serialize_round_trip():
    p = padic_ctx(7, 6)
    x = p.from_int(3 * 49)
    assert p.parse(x.serialize()) == x
    assert p.parse(p.zero().serialize()).is_zero()


@pytest.mark.parametrize("ctx,text", [
    (laurent_ctx(9, 8), "laurent(9,8):t^0*(1,,2)"),
    (laurent_ctx(9, 8), "laurent(9,8):t^0*(9)"),
    (laurent_ctx(9, 8), "laurent(9,0):t^0*(1)"),
    (padic_ctx(5, 8), "padic(5,8):10*p^0"),
    (padic_ctx(5, 8), "padic(5,0):3*p^0"),
])
def test_malformed_element_text_is_a_pattern_mismatch(ctx, text):
    with pytest.raises(PatternMismatch):
        ctx.parse(text)


# --- Teichmuller, principal-unit roots ------------------------------------

@pytest.mark.parametrize("ctx", [padic_ctx(5, 8), laurent_ctx(7, 8), laurent_ctx(4, 6)])
def test_teichmuller_is_root_of_unity_lifting_residue(ctx):
    q = ctx.q
    for c in list(ctx.residue_field.elements())[1:]:  # zero comes first
        w = teichmuller(ctx, c)
        assert ctx.residue(w) == c and w.prec == ctx.prec
        assert (w ** (q - 1)).is_one()
    with pytest.raises(ZeroElement, match="^cannot lift zero to a unit$"):
        teichmuller(ctx, ctx.residue_field.zero())


def test_unit_decompose_splits_valuation_and_unit():
    p = padic_ctx(5, 8)
    x = p.from_int(7 * 25)
    k, u = unit_decompose(x)
    assert k == 2
    assert u.val == 0
    assert u * p.uniformizer() ** 2 == x


def test_principal_unit_root_when_ell_prime_to_p():
    p = padic_ctx(5, 8)
    pu = p.one() + p.uniformizer() * p.from_int(3)
    r = principal_unit_root(p, pu, 3)
    assert r ** 3 == pu
    assert p.is_principal_unit(r)


def _root_precisions(p):
    """1, 2, 16, about 200, and p^k - 1, p^k, p^k + 1 for p^k <= 30: the
    precisions where the exponent p^k of U_1 mod t^N steps up."""
    precs = {1, 2, 16, 199}
    pk = p
    while pk <= 30:
        precs |= {pk - 1, pk, pk + 1}
        pk *= p
    return sorted(precs)


ROOT_CASES = [(make, q, prec)
              for make, q in ([(padic_ctx, p) for p in (2, 3, 5, 7)]
                              + [(laurent_ctx, q) for q in (2, 3, 4, 8, 9, 25)])
              for prec in _root_precisions(ff_ctx_q(q).p)]


def root_samples(ctx, seed):
    """Two random principal units, and one at a relative precision below
    the context's, with the exponents ell in 2..11 prime to p."""
    rng = random.Random(seed)
    xs = [ctx.one() + ctx.uniformizer() * ctx.random_unit(rng)
          for _ in range(2)]
    if ctx.prec > 2:
        xs.append(xs[0].truncate(ctx.prec - 2))
    return xs, [ell for ell in (2, 3, 5, 7, 11) if ell % ctx.p]


@pytest.mark.parametrize("make,q,prec", ROOT_CASES)
def test_principal_unit_root_matches_hensel_lift(make, q, prec):
    # The Hensel lift of the simple root 1 of X^ell - x mod pi: x -> x^ell
    # is a bijection of U_1 for ell prime to p, so r^ell = x with r in U_1
    # at x's precision fixes the root.  Over Z_p, test_sympy_oracle also
    # compares it with sympy's nthroot_mod.
    ctx = make(q, prec)
    xs, ells = root_samples(ctx, q * 1000 + prec)
    for x in xs:
        for ell in ells:
            r = principal_unit_root(ctx, x, ell)
            assert r ** ell == x
            assert ctx.is_principal_unit(r) and r.prec == x.prec


@pytest.mark.parametrize("ctx", [padic_ctx(5, 8), padic_ctx(2, 3),
                                 laurent_ctx(9, 8), laurent_ctx(2, 1)])
def test_principal_unit_root_errors(ctx):
    for x in (ctx.zero(), ctx.uniformizer(),
              ctx.lift_residue(ctx.residue_field.gen()) if ctx.q > 2
              else ctx.uniformizer() + ctx.one()):
        if ctx.q == 2 and x.val == 0:
            continue  # over F_2 every unit is principal
        with pytest.raises(NotAUnit,
                           match="^ell-th roots are only guaranteed on U_1$"):
            principal_unit_root(ctx, x, 3)
    with pytest.raises(NewtonConditionFails,
                       match=f"^exponent {2 * ctx.p} not coprime to p = "
                             f"{ctx.p}$"):
        principal_unit_root(ctx, ctx.one(), 2 * ctx.p)


# --- exact digit keys -----------------------------------------------------

KEY_RINGS = [("padic", 2), ("padic", 3), ("laurent", 2), ("laurent", 3),
             ("laurent", 4)]


@st.composite
def local_elements(draw, kind, q):
    """Small elements of one ring, so that equal texts come up often:
    exact and approximate zeros, units past p^prec, and coefficient
    tuples shorter than prec or with exponents past q - 1."""
    prec = draw(st.integers(1, 3))
    if draw(st.integers(0, 4)) == 0:
        zero_prec = draw(st.none() | st.integers(-1, 4))
        if kind == "padic":
            return PadicNumber.zero(q, prec, zero_prec)
        return LaurentSeries.zero(ff_ctx_q(q), prec, zero_prec)
    val = draw(st.integers(-1, 2))
    if kind == "padic":
        unit = draw(st.integers(1, 2 * q ** prec).filter(lambda u: u % q))
        return PadicNumber(q, prec, val, unit)
    base = ff_ctx_q(q)
    exps = [draw(st.integers(0, 2 * q))]
    exps += draw(st.lists(st.none() | st.integers(0, 2 * q),
                          max_size=prec - 1))
    return LaurentSeries(base, prec, val, [
        base.zero() if e is None else base.from_exp(e) for e in exps])


@st.composite
def monomials(draw, kind, q):
    """c * pi^v, the units a Laurent series multiplies, inverts and raises
    to powers without the generic kernels; their p-adic counterparts."""
    prec, val = draw(st.integers(1, 3)), draw(st.integers(-2, 3))
    c = draw(st.integers(1, q - 1))
    if kind == "padic":
        return PadicNumber(q, prec, val, c)
    base = ff_ctx_q(q)
    return LaurentSeries(base, prec, val, [base.from_exp(c)])


def _monomial_results(ms, xs):
    """Products of the monomials ms with xs on either side, and their
    inverses and powers."""
    out = []
    for m in ms:
        out += [m.inverse(), m ** 0, m ** 3, m ** -2]
        for x in xs:
            out += [m * x, x * m]
    return out


@settings(max_examples=150)
@given(st.data())
def test_key_equal_exactly_when_serialize_equal(data):
    kind, q = data.draw(st.sampled_from(KEY_RINGS))
    xs = data.draw(st.lists(local_elements(kind, q), min_size=2, max_size=8))
    ms = data.draw(st.lists(monomials(kind, q), min_size=1, max_size=2))
    xs += _monomial_results(ms, xs)
    for a in xs:
        hash(a.key())
        for b in xs:
            assert (a.key() == b.key()) == (a.serialize() == b.serialize())


def _text_of_fields(x) -> str:
    """serialize()'s text, formatted here from the stored fields."""
    if isinstance(x, PadicNumber):
        head, unit = f"padic({x.p},{x.prec}):", f"{x.unit}*p^{x.val}"
    else:
        head = f"laurent({x.base.q},{x.prec}):"
        unit = f"t^{x.val}*({','.join(str(c) for c in x.coeffs)})"
    return head + ("0" if x.val is None else unit)


@settings(max_examples=100)
@given(st.data())
def test_memoized_text_follows_the_fields(data):
    # serialize() keeps the text it renders; every constructor starts
    # without one, so no result shows the memoized text of an operand
    kind, q = data.draw(st.sampled_from(KEY_RINGS))
    ctx = padic_ctx(q, 3) if kind == "padic" else laurent_ctx(q, 3)
    xs = data.draw(st.lists(local_elements(kind, q), min_size=2, max_size=5))
    xs += data.draw(st.lists(monomials(kind, q), min_size=1, max_size=2))
    for x in xs:
        x.serialize()
    results = []
    for a in xs:
        results += [-a, ctx.parse(a.serialize())]
        if not a.is_zero():
            results += [a.inverse(), a.truncate(1), a.truncate(a.prec + 1)]
            results += [a ** k for k in (0, 1, 2, 3, -1, -2)]
        for b in xs:
            results += [a + b, a - b, a * b]
    if kind == "laurent":
        window = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                    max_size=5))
        results.append(LaurentSeries.make(ff_ctx_q(q), 3, -1, window))
    for r in results:
        assert r.serialize() == _text_of_fields(r)
        assert r.serialize() == _text_of_fields(r)  # the memoized text


@settings(max_examples=150)
@given(st.data())
def test_equality_agrees_with_the_difference(data):
    # == reads digit keys when both sides are nonzero with equal (val,
    # prec) and subtracts otherwise; both must say what the difference says
    kind, q = data.draw(st.sampled_from(KEY_RINGS))
    xs = data.draw(st.lists(local_elements(kind, q), min_size=2, max_size=8))
    xs += [x.truncate(x.prec - 1) for x in xs if x.val is not None and x.prec > 1]
    for a in xs:
        for b in xs:
            assert (a == b) == (a - b).is_zero(), (a, b)


def _frobenius_teichmuller(ctx, x):
    """The reference: prec Frobenius steps x <- x^p."""
    y = x
    for _ in range(x.prec):
        y = y ** ctx.p
    return y


@pytest.mark.parametrize("prec", [1, 2, 16, 1365])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padic_teichmuller_matches_repeated_frobenius(p, prec):
    ctx = padic_ctx(p, prec)
    rng = random.Random(100 * p + prec)
    xs = [ctx.lift_residue(c) for c in ctx.residue_field.elements()
          if not c.is_zero()]
    xs += [ctx.random_unit(rng) for _ in range(3)]
    if prec > 100:  # the reference costs a quarter second per unit here
        xs = xs[1:2] + xs[-1:]
    if prec > 1:  # relative precision below the context's
        xs.append(xs[-1].truncate(prec - 1))
    for x in xs:
        w = teichmuller(ctx, ctx.residue(x))
        assert w.truncate(x.prec).key() == _frobenius_teichmuller(ctx, x).key()
        assert w ** (p - 1) == ctx.one() and ctx.residue(w) == ctx.residue(x)
