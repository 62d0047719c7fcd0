"""Finite field contexts: table construction, arithmetic, discrete logs."""

import itertools
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

import milnorforge
from milnorforge.arith.finite_field import (
    MAX_EXTENSION_DEGREE,
    TABLE_BOUND,
    FFElement,
    _enc_digits,
    _extension_points,
    factorize,
    ff_ctx,
    ff_ctx_q,
    ff_embedding,
)
from milnorforge.arith.local import padic_ctx
from milnorforge.errors import (
    BadPrime,
    FieldTooLarge,
    MilnorForgeError,
    NotAUnit,
    NotPrime,
)
from milnorforge.symbols import ff_kgroup, symbol


FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def exponent(x):
    """The discrete log of x, None for zero."""
    return None if x.is_zero() else x.dlog()


def neg_enc(k, a: int) -> int:
    """Reference negation on encodings: negate each base-p digit mod p."""
    out, scale = 0, 1
    for _ in range(k.f):
        a, d = divmod(a, k.p)
        out += (-d) % k.p * scale
        scale *= k.p
    return out


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_multiplicative_group_is_cyclic_of_order_q_minus_1(q):
    k = ff_ctx_q(q)
    g = k.gen()
    seen = set()
    x = k.one()
    for _ in range(q - 1):
        seen.add(x.enc)
        x = x * g
    assert x.is_one()
    assert len(seen) == q - 1


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_dlog_inverts_generator_power(q):
    k = ff_ctx_q(q)
    for e in range(q - 1):
        assert k.from_exp(e).dlog() == e


def test_prime_field_from_int_matches_mod_p():
    k = ff_ctx(7)
    for n in range(-10, 20):
        assert k.from_int(n).as_int() == n % 7


def test_frozen_f9_arithmetic():
    # F_9 = F_3[x]/(modulus); g generates the 8-element unit group.
    k = ff_ctx(3, 2)
    g = k.gen()
    assert (g ** 8).is_one()
    assert not (g ** 4).is_one()
    # g^4 is the unique element of order 2, i.e. -1
    assert g ** 4 == k.minus_one()


def test_zero_has_no_inverse_or_dlog():
    k = ff_ctx(5)
    with pytest.raises(MilnorForgeError):
        k.zero().inverse()
    with pytest.raises(NotAUnit):
        k.zero().dlog()


def test_embedding_f2_into_f4_is_a_ring_map():
    small = ff_ctx(2)
    big = ff_ctx(2, 2)
    emb = ff_embedding(small, big)
    for a in small.elements():
        for b in small.elements():
            assert emb(a + b) == emb(a) + emb(b)
            assert emb(a * b) == emb(a) * emb(b)
    assert emb(small.one()).is_one()


def _digit_embedding(small, big):
    """The embedding formula ff_embedding replaced: sum a_i X^i -> sum a_i
    h^i, digit by digit, for the first root h of the small modulus."""
    if small.f == 1:
        return lambda x: big.from_int(x.as_int())
    step = (big.q - 1) // (small.q - 1)
    for i in range(small.q - 1):
        h = big.from_exp(step * i)
        acc = big.zero()
        for c in reversed(small.modulus):
            acc = acc * h + big.from_int(c)
        if acc.is_zero():
            break
    powers = [big.one()]
    for _ in range(small.f - 1):
        powers.append(powers[-1] * h)

    def fn(x):
        acc = big.zero()
        for d, hp in zip(_enc_digits(x.enc, small.p, small.f), powers):
            acc = acc + hp * big.from_int(d)
        return acc
    return fn


def test_embedding_equals_the_digit_formula_up_to_4096():
    # every pair F_{p^f1} -> F_{p^f2}, f1 | f2, p^f2 <= 4096 with p <= 64;
    # a larger prime has only the pair F_p -> F_p
    pairs = [(p, f1, f2) for p in range(2, 65) if factorize(p) == {p: 1}
             for f2 in range(1, 13) if p ** f2 <= 4096
             for f1 in range(1, f2 + 1) if f2 % f1 == 0]
    assert len(pairs) == 115
    for p, f1, f2 in pairs:
        small, big = ff_ctx(p, f1), ff_ctx(p, f2)
        emb, ref = ff_embedding(small, big), _digit_embedding(small, big)
        assert all(emb(x) == ref(x) for x in small.elements()), (p, f1, f2)


def test_f2_needs_no_branch_of_its_own():
    # q - 1 = 1: every exponent is 0, the generator is 1, and the K-group
    # vector of any class is [0]
    k = ff_ctx(2)
    assert k.generator_enc == 1 and k.gen().is_one()
    assert [k.from_exp(e).dlog() for e in (-3, 0, 1, 5)] == [0] * 4
    assert [exponent(x) for x in k.elements()] == [None, 0]
    for n in range(1, 5):
        assert ff_kgroup(2, n).vector_of(symbol(k, [k.one()] * n)) == [0]
        assert ff_kgroup(2, n).invariant_factors == []
    assert ff_kgroup(2, 0).invariant_factors == [0]


@pytest.mark.parametrize("p", [0, 1, 4, 9, 91, -5])
def test_non_primes_are_refused(p):
    with pytest.raises(NotPrime):
        ff_ctx(p)
    with pytest.raises(BadPrime):
        padic_ctx(p, 8)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_f13_field_axioms(a, b, c):
    k = ff_ctx(13)
    x, y, z = k.from_int(a), k.from_int(b), k.from_int(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == k.zero()
    if not x.is_zero():
        assert x * x.inverse() == k.one()


@given(st.integers(0, 15), st.integers(0, 15))
def test_f16_commutative_multiplication(a, b):
    k = ff_ctx(2, 4)
    x, y = k.from_enc(a), k.from_enc(b)
    assert x * y == y * x
    assert x + y == y + x


@pytest.mark.parametrize("q", FIELD_SIZES + [25, 27, 32, 81, 256])
def test_zech_arithmetic_matches_encoding_arithmetic(q):
    k = ff_ctx_q(q)
    assert k.zech is not None
    elems = list(k.elements())
    encs = [x.enc for x in elems]
    negs = [neg_enc(k, a) for a in encs]
    assert k.minus_one() == k.from_enc(neg_enc(k, 1))
    for x, a, na in zip(elems, encs, negs):
        assert -x == k.from_enc(na)
        for y, b, nb in zip(elems, encs, negs):
            assert x + y == k.from_enc(k.add_enc(a, b))
            assert x - y == k.from_enc(k.add_enc(a, nb))


@pytest.mark.parametrize("q", [65537, 3 ** 11])
def test_untabled_field_arithmetic_on_sample_pairs(q):
    k = ff_ctx_q(q)
    assert k.q > TABLE_BOUND and k.zech is None
    rng = random.Random(q)
    assert k.minus_one() == k.from_enc(neg_enc(k, 1))
    pairs = [(0, 0), (1, 1)] + [(rng.randrange(q), rng.randrange(q)) for _ in range(12)]
    for a, b in pairs:
        x, y = k.from_enc(a), k.from_enc(b)
        assert x + y == k.from_enc(k.add_enc(a, b))
        assert x - y == k.from_enc(k.add_enc(a, neg_enc(k, b)))
        assert -x == k.from_enc(neg_enc(k, a))
        assert (x - x).is_zero()
        if k.f == 1:
            assert (x + y).as_int() == (a + b) % q
            assert (x - y).as_int() == (a - b) % q


class ExponentForm:
    """F_q in the layout FFElement once stored: None for zero, else the
    exponent e in [0, q-2] of g^e.  Products, inverses, powers and
    negation work on exponents (-1 = g^((q-1)/2), or 1 in characteristic
    2).  Encodings come from square-and-multiply on digit vectors mod the
    pinned modulus, written here, and sums are added digit by digit."""

    def __init__(self, k):
        self.k, self.n = k, k.q - 1
        self.half = self.n // 2 if k.p != 2 else 0
        self._digits = {}

    def mul(self, a, b):
        return None if a is None or b is None else (a + b) % self.n

    def neg(self, a):
        return None if a is None else (a + self.half) % self.n

    def pow(self, a, e):
        if a is None:
            return 0 if e == 0 else None
        return a * e % self.n

    def _digit_mul(self, x, y):
        p, f, m = self.k.p, self.k.f, self.k.modulus
        res = [0] * (2 * f - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                res[i + j] += xi * yj
        for i in range(2 * f - 2, f - 1, -1):  # X^f = -(m_0 + ... )
            c, res[i] = res[i] % p, 0
            for j in range(f):
                res[i - f + j] -= c * m[j]
        return [r % p for r in res[:f]]

    def digits(self, a):
        p, f = self.k.p, self.k.f
        if a is None:
            return [0] * f
        if a not in self._digits:
            g, acc = _enc_digits(self.k.generator_enc, p, f), [1] + [0] * (f - 1)
            for bit in bin(a)[2:]:
                acc = self._digit_mul(acc, acc)
                if bit == "1":
                    acc = self._digit_mul(acc, g)
            self._digits[a] = acc
        return self._digits[a]

    def enc(self, a):
        return sum(d * self.k.p ** i for i, d in enumerate(self.digits(a)))

    def add_enc(self, a, b):
        p = self.k.p
        return sum((x + y) % p * p ** i
                   for i, (x, y) in enumerate(zip(self.digits(a), self.digits(b))))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 243, 256, 65537, 3 ** 11, 2 ** 20])
def test_ffelement_matches_the_exponent_form(q):
    k = ff_ctx_q(q)
    ref = ExponentForm(k)
    n, p, f = ref.n, k.p, k.f
    rng = random.Random(q)
    if q <= 16:
        exps = [None] + list(range(n))
    else:
        exps = [None, 0, 1, ref.half, n - 1] + [rng.randrange(n) for _ in range(8)]
    elems = [k.zero() if a is None else k.from_exp(a) for a in exps]
    for x, a in zip(elems, exps):
        assert isinstance(x, FFElement) and x.enc == ref.enc(a)
        assert exponent(x) == a
        assert x.serialize() == (f"ff({p},{f}):0" if a is None
                                 else f"ff({p},{f}):g^{a}")
        twin = k.from_enc(ref.enc(a))
        assert twin == x and hash(twin) == hash(x)
        assert (-x).enc == ref.enc(ref.neg(a))
        for e in (-5, -1, 0, 1, 2, 7, n, n + 3):
            if a is None and e < 0:
                with pytest.raises(NotAUnit):
                    x ** e
            else:
                assert (x ** e).enc == ref.enc(ref.pow(a, e))
        if a is None:
            for op in (x.inverse, x.dlog, lambda: k.one() / x):
                with pytest.raises(NotAUnit):
                    op()
        else:
            assert x.inverse().enc == ref.enc(-a % n)
            for e in (a, a - n, a - 3 * n, a + 2 * n):  # negative exponents too
                assert k.from_exp(e) == x and k.from_exp(e).dlog() == a
        for y, b in zip(elems, exps):
            assert (x == y) == (a == b)
            assert (x * y).enc == ref.enc(ref.mul(a, b))
            assert (x + y).enc == ref.add_enc(a, b)
            assert (x - y).enc == ref.add_enc(a, ref.neg(b))
            assert x + y == y + x and hash(x + y) == hash(y + x)
            if b is not None:
                assert (x / y).enc == ref.enc(ref.mul(a, -b % n))
    assert k.minus_one().enc == ref.enc(ref.half)
    assert k.minus_one() == -k.one() and (k.minus_one() ** 2).is_one()
    assert [exponent(x) for x in itertools.islice(k.elements(), 6)] == \
        [None] + list(range(min(5, n)))
    if q <= 256:
        assert [exponent(x) for x in k.elements()] == [None] + list(range(n))
    # the seeded draws of the exponent form: g^randrange(q-1), and zero
    # for randrange(q) == 0, else g^(that - 1)
    r1, r2 = random.Random(7), random.Random(7)
    nonzero = [k.random_nonzero(r1) for _ in range(20)]
    assert [x.enc for x in nonzero] == [ref.enc(r2.randrange(n)) for _ in range(20)]
    drawn = [k.random_element(r1) for _ in range(20)]
    want = [r2.randrange(q) for _ in range(20)]
    assert [x.enc for x in drawn] == [ref.enc(None if w == 0 else w - 1)
                                      for w in want]


def test_ff_ctx_is_one_object_per_field_and_q_is_bounded():
    # LocalFieldCtx compares residue fields by identity, so ff_ctx(3) and
    # ff_ctx(3, 1) must be one object
    assert ff_ctx(2, 10) is ff_ctx(2, 10) is ff_ctx_q(1024)
    assert ff_ctx(3) is ff_ctx(3, 1)
    with pytest.raises(FieldTooLarge):
        ff_ctx_q(2 ** 21)
    with pytest.raises(FieldTooLarge):
        ff_ctx(2, 21)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_extension_points_walk_each_point_once_in_order(q):
    k = ff_ctx_q(q)
    points = list(_extension_points(k))
    assert len(points) == q + (q ** 2 - q) + (q ** 3 - q)
    levels = [big.f // k.f for big, _, _ in points]
    assert levels == sorted(levels)
    assert set(levels) == set(range(1, MAX_EXTENSION_DEGREE + 1))
    for j in range(1, MAX_EXTENSION_DEGREE + 1):
        big = ff_ctx(k.p, k.f * j)
        level = [(b, e, c) for b, e, c in points if b.f == big.f]
        assert all(b is big and e is ff_embedding(k, big) for b, e, _ in level)
        # g^e lies in F_{q^i} exactly when (q^j - 1)/(q^i - 1) divides e;
        # zero (None) lies in F_q only
        cofactors = [(q ** j - 1) // (q ** i - 1)
                     for i in range(1, j) if j % i == 0]
        expected = ([None] if j == 1 else []) + [
            e for e in range(q ** j - 1) if all(e % m for m in cofactors)]
        assert [exponent(c) for _, _, c in level] == expected


# (p, f) -> (modulus, generator_enc) as first published; every ff(p,f):g^e
# in a record names an element through them, so they must never move
PINNED_FIELDS = {
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 1, 0, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (2, 4): ((1, 1, 0, 0, 1), 2),
    (5, 2): ((2, 0, 1), 6),
    (3, 3): ((1, 2, 0, 1), 3),
    (5, 3): ((1, 1, 0, 1), 9),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (7, 3): ((2, 0, 0, 1), 22),
    (2, 10): ((1, 0, 0, 1) + (0,) * 6 + (1,), 2),
    (3, 11): ((2, 0, 1) + (0,) * 8 + (1,), 5),
    (2, 16): ((1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,), 3),
}


@pytest.mark.parametrize("p,f", sorted(PINNED_FIELDS))
def test_modulus_and_generator_are_pinned(p, f):
    k = ff_ctx(p, f)
    assert (k.modulus, k.generator_enc) == PINNED_FIELDS[p, f]


_CORRUPT_TABLES = """
import copy
from milnorforge.arith.finite_field import ff_ctx, ff_embedding
from milnorforge.errors import SelfCheckFailed

if __debug__:
    raise SystemExit("not running under python -O")


def expect_failure(label, check):
    try:
        check()
    except SelfCheckFailed:
        return
    raise SystemExit(f"self-check missed: {label}")


for p, f in [(3, 2), (2, 3), (7, 1)]:
    k = ff_ctx(p, f)
    n = k.q - 1

    def corrupt(name, change):
        bad = copy.copy(k)
        table = copy.copy(getattr(k, name))
        change(table)
        setattr(bad, name, table)
        expect_failure(f"{name} of F_{k.q}", bad._check_tables)

    corrupt("exp", lambda t: t.__setitem__(-1, t[0]))
    corrupt("log", lambda t: t.pop(k.exp[1]))
    corrupt("zech", lambda t: t.__setitem__(k.half, 1))
    corrupt("zech", lambda t: t.__setitem__((k.half + 1) % n, None))

small = copy.copy(ff_ctx(3, 2))
small.modulus = (0, 0, 1)
expect_failure("embedding root", lambda: ff_embedding(small, ff_ctx(3, 4)))
print("ok")
"""


def test_table_self_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(milnorforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_TABLES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip() == "ok"
