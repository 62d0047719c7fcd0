"""Symbol calculus: formal classes, certificate moves, K-groups of finite fields."""

import hashlib
import math
import random

import pytest

from milnorforge.arith.finite_field import ff_ctx, ff_ctx_q
from milnorforge.errors import SelfCheckFailed, ZeroEntry
from milnorforge.localk import (
    BILINEAR_EXPAND,
    MINUS_SELF,
    SELF_TO_MINUS_ONE,
    STEINBERG_ZERO,
    SWAP,
    CertStep,
)
from milnorforge.symbols import (
    MilnorClass,
    ff_congruent,
    ff_kgroup,
    symbol,
)


def single_term(a):
    assert len(a.terms) == 1, a
    return a.terms[0]


def move(a, kind, pos, aux=()):
    """Apply one certificate move to a single-term class: subtract the
    term's coefficient times the move's relator.  None when the move's
    side condition fails."""
    t = single_term(a)
    step = CertStep(kind, t.coeff, t.entries, pos, aux)
    if step.violation(2):
        return None
    return a - MilnorClass(a.ctx, a.degree,
                           [(t.coeff * c, e)
                            for c, e in step.relator(a.ctx, 2)])


def test_symbol_entries_must_be_nonzero():
    k = ff_ctx(5)
    with pytest.raises(ZeroEntry):
        symbol(k, [k.one(), k.zero()])
    # zero-entry terms that cancel are refused too, not booked as the
    # zero class
    z = k.zero()
    with pytest.raises(ZeroEntry):
        MilnorClass(k, 1, [(1, (z,)), (-1, (z,))])


def test_class_addition_collects_matching_terms():
    k = ff_ctx(5)
    a = symbol(k, [k.from_int(2), k.from_int(3)])
    s = a + a
    assert len(s.terms) == 1 and s.terms[0].coeff == 2
    assert (a - a).is_zero()


def test_scale_and_neg():
    k = ff_ctx(7)
    a = symbol(k, [k.from_int(3)])
    assert (a.scale(3) - a - a - a).is_zero()
    assert (a + (-a)).is_zero()


def test_product_concatenates_entries():
    k = ff_ctx(7)
    a = symbol(k, [k.from_int(2)])
    b = symbol(k, [k.from_int(3), k.from_int(5)])
    ab = a * b
    assert ab.degree == 3
    t = single_term(ab)
    assert [e.as_int() for e in t.entries] == [2, 3, 5]


def test_expand_entry_bilinearity_move():
    k = ff_ctx(7)
    a = symbol(k, [k.from_int(6), k.from_int(5)])
    out = move(a, BILINEAR_EXPAND, 0, (k.from_int(2), k.from_int(3)))
    assert len(out.terms) == 2
    assert all(t.coeff == 1 for t in out.terms)
    assert move(a, BILINEAR_EXPAND, 0, (k.from_int(2), k.from_int(2))) is None


def test_swap_flips_sign():
    k = ff_ctx(5)
    a = symbol(k, [k.from_int(2), k.from_int(3)])
    b = move(a, SWAP, (0, 1))
    assert single_term(b).coeff == -1
    assert (move(b, SWAP, (0, 1)) - a).is_zero()


def test_minus_self_identity():
    k = ff_ctx(7)
    a = symbol(k, [k.from_int(3), k.from_int(-3)])
    assert move(a, MINUS_SELF, 0).is_zero()
    b = symbol(k, [k.from_int(3), k.from_int(5)])
    assert move(b, MINUS_SELF, 0) is None


def test_self_to_minus_one_identity():
    k = ff_ctx(7)
    a = symbol(k, [k.from_int(3), k.from_int(3)])
    out = move(a, SELF_TO_MINUS_ONE, 0)
    t = single_term(out)
    assert t.entries[1] == k.minus_one()


def test_steinberg_relator_detection():
    k = ff_ctx(7)
    yes = symbol(k, [k.from_int(3), k.from_int(-2)])  # 3 + 5 = 1 mod 7
    no = symbol(k, [k.from_int(3), k.from_int(3)])

    def is_relator(a):
        return any(move(a, STEINBERG_ZERO, pos) is not None
                   for pos in ((0, 1), (1, 0)))

    assert is_relator(yes)
    assert not is_relator(no)


FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_k1_of_finite_field_is_cyclic(q):
    expect = [] if q == 2 else [q - 1]
    assert ff_kgroup(q, 1).invariant_factors == expect


@pytest.mark.parametrize("q", FIELD_SIZES)
@pytest.mark.parametrize("n", [2, 3])
def test_higher_k_of_finite_field_vanishes(q, n):
    assert ff_kgroup(q, n).invariant_factors == []


def test_k2_kills_random_symbols():
    rng = random.Random(3)
    for q in (5, 9):
        G = ff_kgroup(q, 2)
        k = ff_ctx_q(q)
        for _ in range(20):
            a = symbol(k, [k.random_nonzero(rng), k.random_nonzero(rng)])
            assert ff_congruent(a, MilnorClass.zero(k, 2))


def test_k1_vector_counts_generator_exponent():
    G = ff_kgroup(7, 1)
    k = ff_ctx_q(7)
    g = k.gen()
    assert G.vector_of(symbol(k, [g ** 4])) == [4]
    assert not ff_congruent(symbol(k, [g]), MilnorClass.zero(k, 1))
    assert ff_congruent(symbol(k, [k.one()]), MilnorClass.zero(k, 1))


def _kappa_congruent(kappa, a, b, m):
    """The congruence in K_n(kappa)/m, m >= 2, of the tame sequence's
    checks before ff_congruent."""
    if a.degree == 0:
        va, vb = (sum(t.coeff for t in c.terms) for c in (a, b))
        order = 0
    else:
        kg = ff_kgroup(kappa.q, a.degree)
        (va,), (vb,) = kg.vector_of(a), kg.vector_of(b)
        order = kg.order
    return (va - vb) % math.gcd(m, order) == 0


def _image_is_zero(a):
    """The equality test of K_n(F_q), n >= 1, before ff_congruent."""
    kg = ff_kgroup(a.ctx.q, a.degree)
    return kg.presentation.coordinates(kg.vector_of(a)) == [0]


def _random_class(k, n, rng):
    return MilnorClass(k, n, [
        (rng.randint(-3, 3), [k.random_nonzero(rng) for _ in range(n)])
        for _ in range(rng.randint(0, 3))])


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
def test_ff_congruent_agrees_with_the_tests_it_replaced(q):
    k = ff_ctx_q(q)
    rng = random.Random(q)
    seen = set()
    for n in range(4):
        for _ in range(30):
            a = _random_class(k, n, rng)
            b = a + _random_class(k, n, rng).scale(
                rng.choice((1, 2, 3, 5, q - 1)))
            for m in (0, 2, 3, 5):
                got = ff_congruent(a, b, m)
                if m:
                    assert got is _kappa_congruent(k, a, b, m), (a, b, m)
                elif n:
                    assert got is _image_is_zero(a - b), (a, b)
                else:  # K_0 = Z
                    assert got is (a - b).is_zero(), (a, b)
                seen.add(got)
    assert seen == {True, False}


def test_serialize_parseable_shape():
    k = ff_ctx(5)
    a = symbol(k, [k.from_int(2), k.from_int(3)]).scale(2) - symbol(k, [k.one(), k.one()])
    s = a.serialize()
    assert s.startswith("deg:2 ")
    assert "{" in s and "}" in s


# --- the Steinberg rows of K^M_n(F_q) --------------------------------------

PRIME_POWERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                      31, 32]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
@pytest.mark.parametrize("n", [3, 4])
def test_steinberg_rows_stop_when_the_gcd_reaches_one(q, n):
    # each row i*j comes from g^i + g^j = 1, unreduced mod q - 1, and the
    # rows stop at the first one that brings the gcd to 1
    k = ff_ctx_q(q)
    g = k.gen()
    G = ff_kgroup(q, n)
    rows, meta = G.presentation.relations, G.relator_meta
    assert rows[0] == q - 1 and meta[0] == ("order",)
    gcds = [q - 1]
    for row, (kind, i, j) in zip(rows[1:], meta[1:]):
        assert kind == "steinberg" and 1 <= i <= q - 2
        assert (g ** i + g ** j).is_one()
        assert row == i * j
        gcds.append(math.gcd(gcds[-1], row))
    assert gcds[-1] == 1 and 1 not in gcds[:-1]
    assert [m[1] for m in meta[1:]] == list(range(1, len(rows)))
    assert G.invariant_factors == []


def test_steinberg_rows_do_not_depend_on_the_degree():
    for q in (2, 9, 1024):
        G2 = ff_kgroup(q, 2)
        for n in (3, 4, 7):
            assert ff_kgroup(q, n).relator_meta == G2.relator_meta


# --- certificate combinations and the order of K^M_n(F_q) -------------------

PRIME_POWERS_TO_256 = [
    q for q in range(2, 257)
    if len({p for p in range(2, q + 1)
            if q % p == 0 and all(p % d for d in range(2, p))}) == 1]


def test_certificate_combinations_are_pinned():
    # the coefficient lists certificates discharge against: any change in
    # the pivot order of the gcd would change every certificate's text;
    # digest taken once the rows became the unreduced i*j of the first pairs
    G = ff_kgroup(9, 3)
    assert G.presentation.relations == [8, 2, 2, 18, 16, 35]
    assert G.presentation.express_in_relators([1]) == [0, -17, 0, 0, 0, 1]
    combos = []
    for q in PRIME_POWERS_TO_256:
        for n in (1, 2, 3, 4):
            for v in (0, 1, 2, q - 1, q, 12345, -7):
                try:
                    c = ff_kgroup(q, n).presentation.express_in_relators([v])
                except SelfCheckFailed:  # [v] is outside the relator span
                    c = None
                combos.append((q, n, v, c))
    assert hashlib.sha256(repr(combos).encode()).hexdigest() == (
        "f91e2692bb165ecc7268cf8c4cbe765002449ed23e8cdad32becefcb81028ac5")


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_order_is_that_of_the_cyclic_group(q):
    assert ff_kgroup(q, 0).order == 0
    assert ff_kgroup(q, 1).order == q - 1
    assert ff_kgroup(q, 2).order == ff_kgroup(q, 3).order == 1


def test_k0_is_free_on_one_generator():
    G = ff_kgroup(7, 0)
    assert G.invariant_factors == [0]
    assert G.presentation.express_in_relators([0]) == []
    for v in (1, -3, 6):
        with pytest.raises(SelfCheckFailed):
            G.presentation.express_in_relators([v])


# --- contract checks that once were asserts --------------------------------

_CONTRACT_CHECKS = """
import copy
from milnorforge.arith.finite_field import ff_ctx
from milnorforge.arith.local import LocalFieldCtx, padic_ctx
from milnorforge.arith.poly import Poly
from milnorforge.bass_tate import functoriality_check
from milnorforge.errors import BadInput, PatternMismatch, SelfCheckFailed
from milnorforge.ratfunc import QuotCtx, RatFuncCtx
from milnorforge.rational_ring import MultiPoly
from milnorforge.symbols import ff_kgroup, symbol

if __debug__:
    raise SystemExit("not running under python -O")


def expect(label, error, check):
    try:
        check()
    except error:
        return
    raise SystemExit(f"check missed: {label}")


k = ff_ctx(7)
a1, a2 = symbol(k, [k.from_int(3)]), symbol(k, [k.from_int(3), k.from_int(5)])
expect("class degrees", PatternMismatch, lambda: a1 + a2)
expect("k-group degree", PatternMismatch,
       lambda: ff_kgroup(7, 1).vector_of(a2))

F = RatFuncCtx(ff_ctx(3))
t = F.gen()
pi1 = Poly(F, [-t, F.zero(), F.one()])
Fp = QuotCtx(F, pi1)
pi2 = Poly(Fp, [-(Fp.theta() + Fp.one()), Fp.zero(), Fp.one()])
expect("functoriality sample", BadInput,
       lambda: functoriality_check(pi1, pi2, Poly(F, [F.one()])))

A = padic_ctx(5, 8)
expect("variable count", BadInput, lambda: MultiPoly(A, 3, {}))
expect("exponent length", BadInput,
       lambda: MultiPoly(A, 1, {(1, 2): A.one()}))
expect("local model", BadInput, lambda: LocalFieldCtx("real", k, 8))

bad = copy.copy(k)
bad._order_is_full = lambda enc, factors: False
expect("generator search", SelfCheckFailed, bad._find_generator)
bad = copy.copy(k)
bad.log, bad.generator_enc = None, 1  # 1 generates only {1}
expect("baby-step giant-step", SelfCheckFailed, lambda: bad.dlog_enc(3))
print("ok")
"""


def test_contract_checks_raise_under_python_O(run_python_O):
    out = run_python_O(_CONTRACT_CHECKS)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip() == "ok"
