"""The local ring A(t_1,...,t_k): units, residues, delta test, base change."""

import operator
import random

import pytest

from milnorforge.arith.finite_field import ff_ctx, ff_embedding
from milnorforge.arith.local import PADIC, LocalFieldCtx, laurent_ctx, padic_ctx
from milnorforge.arith.poly import Poly
from milnorforge.errors import (
    BadInput,
    ContextMismatch,
    EliminationFailed,
    NonUnitEntry,
    NotAUnit,
    PrecisionTooLowToReduce,
    ResidueReducible,
)
from milnorforge.ratfunc import QuotCtx
from milnorforge import rational_ring
from milnorforge.rational_ring import (
    MultiPoly,
    RationalRingElem,
    Rep1,
    _join_bpoly,
    _split_bpoly,
    base_change_roundtrip,
    conv_to_arep,
    conv_to_brep,
    delta_kernel_check,
    is_unit,
    random_multipoly,
    random_ratring_elem,
    rep1_mul,
    rep1_same,
    residue_map,
    s_member,
)
from milnorforge.symbols import symbol


CONTEXTS = [padic_ctx(5, 8), padic_ctx(2, 8), laurent_ctx(3, 8)]


def mp(A, pairs):
    return MultiPoly(A, 1, {(e,): A.from_int(c) for e, c in pairs})


# --- S-membership and units ----------------------------------------------

def test_s_membership_needs_a_unit_coefficient():
    A = padic_ctx(5, 8)
    assert s_member(mp(A, [(0, 5), (1, 2)]))       # 2 is a unit
    assert not s_member(mp(A, [(0, 5), (1, 10)]))  # all coefficients in (p)
    assert not s_member(MultiPoly.zero(A, 1))


def test_construction_rejects_non_s_denominator():
    A = padic_ctx(5, 8)
    with pytest.raises(NotAUnit):
        RationalRingElem(A, 1, mp(A, [(0, 1)]), mp(A, [(0, 5), (1, 10)]))


@pytest.mark.parametrize("A", CONTEXTS)
def test_construction_rejects_non_integral_coefficients(A):
    # 1/pi has valuation -1: A(t) is a ring over O, not over its fraction field
    inv_pi = A.uniformizer().inverse()
    num = MultiPoly(A, 1, {(0,): A.one(), (1,): inv_pi})
    with pytest.raises(PrecisionTooLowToReduce, match="must be integral"):
        RationalRingElem(A, 1, num, mp(A, [(0, 1)]))
    with pytest.raises(PrecisionTooLowToReduce, match="must be integral"):
        RationalRingElem(A, 1, mp(A, [(0, 1)]), num)


def test_unit_iff_numerator_in_s():
    A = padic_ctx(3, 8)
    x = RationalRingElem(A, 1, mp(A, [(0, 1), (1, 6)]), mp(A, [(0, 7), (1, 1)]))
    assert is_unit(x)
    y = RationalRingElem(A, 1, mp(A, [(0, 3)]), mp(A, [(0, 7), (1, 1)]))
    assert not is_unit(y)


@pytest.mark.parametrize("A", CONTEXTS)
def test_random_s_members_stay_in_s_under_multiplication(A):
    rng = random.Random(A.q)
    for _ in range(25):
        f = random_multipoly(A, 1, rng, ensure_s=True)
        g = random_multipoly(A, 1, rng, ensure_s=True)
        assert s_member(f) and s_member(g)
        assert s_member(f * g)


# --- MultiPoly arithmetic: one ring per product, the constructor's zeros ---

OPERATORS = (operator.add, operator.sub, operator.mul)


def test_multipoly_arithmetic_refuses_mixed_variable_counts():
    # t * t2^3 once returned t: zip dropped the second exponent
    A = padic_ctx(5, 8)
    t = MultiPoly(A, 1, {(1,): A.one()})
    t2 = MultiPoly(A, 2, {(0, 3): A.one()})
    for x, y in ((t, t2), (t2, t)):
        for op in OPERATORS:
            with pytest.raises(BadInput, match="variable operand"):
                op(x, y)


def test_multipoly_arithmetic_refuses_mixed_rings():
    # a Z_5 polynomial times a Z_3 one once multiplied 5-adically
    A = padic_ctx(5, 8)
    f = mp(A, [(0, 2), (1, 1)])
    for B in (padic_ctx(3, 8), padic_ctx(5, 16), laurent_ctx(5, 8)):
        for x, y in ((f, mp(B, [(0, 2)])), (mp(B, [(0, 2)]), f)):
            for op in OPERATORS:
                with pytest.raises(ContextMismatch):
                    op(x, y)
    # an equal context that is another object is the same ring
    twin = LocalFieldCtx(PADIC, ff_ctx(5), 8)
    assert twin is not A and twin == A
    for op in OPERATORS:
        assert op(f, mp(twin, [(0, 3)])).serialize() == \
            op(f, mp(A, [(0, 3)])).serialize()
    # elements of A(t) over other rings, or in other variables, are unequal
    x = RationalRingElem.from_poly(A, f)
    assert x == RationalRingElem.from_poly(twin, mp(twin, [(0, 2), (1, 1)]))
    for B in (padic_ctx(3, 8), padic_ctx(5, 16)):
        assert x != RationalRingElem.from_poly(B, mp(B, [(0, 2), (1, 1)]))
    assert x != RationalRingElem.const(A, 2, A.from_int(2))


def coeff_shape(f: MultiPoly) -> dict:
    """Each coefficient's text and zero_prec (None: not zero or exact)."""
    return {e: (c.serialize(), getattr(c, "zero_prec", None))
            for e, c in f.coeffs.items()}


@pytest.mark.parametrize("A", [padic_ctx(5, 8), laurent_ctx(3, 8)])
def test_multipoly_arithmetic_keeps_approximate_zeros(A):
    # a coefficient that cancels is an approximate zero: its unknown tail
    # still counts, so +, - and * keep it, as the public constructor does
    rng = random.Random(31)
    u, v = A.random_unit(rng), A.random_unit(rng)
    pi = A.uniformizer()
    f = MultiPoly(A, 1, {(0,): u, (1,): v * pi})
    g = MultiPoly(A, 1, {(0,): -u, (2,): v})
    total = f + g
    assert total.coeffs[(0,)].is_zero()
    assert total.coeffs[(0,)].zero_prec == A.prec
    assert coeff_shape(total) == coeff_shape(MultiPoly(
        A, 1, {(0,): u + -u, (1,): v * pi, (2,): v}))
    diff = f - f
    assert coeff_shape(diff) == coeff_shape(MultiPoly(
        A, 1, {(0,): u - u, (1,): v * pi - v * pi}))
    assert [c.zero_prec for _, c in sorted(diff.coeffs.items())] == \
        [A.prec, A.prec + 1]
    prod = total * MultiPoly(A, 1, {(1,): pi})
    assert prod.coeffs[(1,)].zero_prec == A.prec + 1
    assert coeff_shape(prod) == coeff_shape(MultiPoly(
        A, 1, {(1,): (u + -u) * pi, (2,): v * pi * pi, (3,): v * pi}))
    assert coeff_shape(-total) == coeff_shape(MultiPoly(
        A, 1, {e: -c for e, c in total.coeffs.items()}))


def test_multipoly_arithmetic_drops_exact_zeros():
    # over an exact ring a cancelling coefficient is an exact zero, which
    # +, - and * drop as the public constructor does
    A = padic_ctx(5, 8)
    assert set(MultiPoly(A, 1, {(0,): A.zero(), (1,): A.one()}).coeffs) \
        == {(1,)}
    k = ff_ctx(5)
    f = MultiPoly(k, 1, {(0,): k.from_int(1), (1,): k.from_int(2)})
    g = MultiPoly(k, 1, {(0,): k.from_int(4), (1,): k.from_int(3)})
    assert (f + g).is_zero() and (f - f).is_zero()
    # (1 + t)(1 - t) = 1 - t^2: the t terms cancel exactly
    prod = (MultiPoly(k, 1, {(0,): k.one(), (1,): k.one()})
            * MultiPoly(k, 1, {(0,): k.one(), (1,): k.minus_one()}))
    assert coeff_shape(prod) == coeff_shape(MultiPoly(
        k, 1, {(0,): k.one(), (1,): k.zero(), (2,): k.minus_one()}))
    assert set(prod.coeffs) == {(0,), (2,)}


@pytest.mark.parametrize("A", CONTEXTS)
def test_memoized_text_matches_a_fresh_render(A):
    rng = random.Random(A.q + 5)
    one = MultiPoly.one(A, 1)
    for _ in range(20):
        x = random_ratring_elem(A, 1, rng)
        for z in (x, x * x, RationalRingElem.from_poly(A, x.num)):
            text = z.serialize()
            assert z.serialize() is text
            fresh = RationalRingElem(A, 1, z.num, z.den)
            assert fresh.serialize() == text
            assert text == (z.num.serialize() if z.den.same_as(one) else
                            f"({z.num.serialize()})/({z.den.serialize()})")


@pytest.mark.parametrize("A", CONTEXTS)
def test_equal_elements_built_differently_merge_in_one_class(A):
    rng = random.Random(A.q + 6)
    for _ in range(10):
        c = A.random_unit(rng)
        a = RationalRingElem.const(A, 1, c)
        b = RationalRingElem(A, 1, MultiPoly(A, 1, {(0,): c}),
                             MultiPoly.const(A, 1, A.one()))
        x = random_ratring_elem(A, 1, rng)
        while x.is_zero():
            x = random_ratring_elem(A, 1, rng)
        y = x * RationalRingElem.const(A, 1, A.one())
        assert a is not b and x is not y
        a.serialize()  # one side memoized before the merge, one not
        merged = symbol(A, [a, x]) + symbol(A, [b, y])
        assert [t.coeff for t in merged.terms] == [2]


# --- residue map ----------------------------------------------------------

def test_residue_map_frozen_example():
    A = padic_ctx(3, 8)
    x = RationalRingElem(A, 1, mp(A, [(0, 1), (1, 6)]), mp(A, [(0, 7), (1, 1)]))
    r = residue_map(x)
    # (6t + 1)/(t + 7) reduces to 1/(1 + t) over F_3
    assert r.serialize() == "(ff(3,1):g^0)/(ff(3,1):g^0 + ff(3,1):g^0*t^1)"


@pytest.mark.parametrize("A", CONTEXTS)
def test_residue_map_is_multiplicative(A):
    rng = random.Random(A.q + 1)
    for _ in range(15):
        x = random_ratring_elem(A, 1, rng)
        y = random_ratring_elem(A, 1, rng)
        assert residue_map(x * y) == residue_map(x) * residue_map(y)


# --- hashing agrees with working-precision equality ----------------------

@pytest.mark.parametrize("A", CONTEXTS)
def test_equal_elements_hash_alike(A):
    rng = random.Random(A.q + 2)
    tiny = MultiPoly(A, 1, {(1,): A.uniformizer() ** A.prec})
    for _ in range(20):
        x = random_ratring_elem(A, 1, rng)
        u = A.random_unit(rng)
        h = random_multipoly(A, 1, rng, ensure_s=True)
        for y in (RationalRingElem(A, 1, x.num.scale(u), x.den.scale(u)),
                  RationalRingElem(A, 1, x.num * h, x.den * h),
                  RationalRingElem(A, 1, x.num + tiny, x.den)):
            assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("A", [padic_ctx(5, 8), laurent_ctx(3, 8)])
def test_hashes_spread_over_many_buckets(A):
    rng = random.Random(7)
    xs = [random_ratring_elem(A, 1, rng) for _ in range(200)]
    residues = {residue_map(x).serialize() for x in xs}
    buckets = {hash(x) for x in xs}
    assert len(buckets) == len(residues) >= 15


def test_hash_without_a_residue_normal_form_is_constant():
    A = padic_ctx(5, 8)
    rng = random.Random(3)
    xs = [random_ratring_elem(A, 2, rng) for _ in range(5)]
    assert len({hash(x) for x in xs}) == 1
    B = QuotCtx(A, Poly.from_ints(A, [2, 0, 1]))
    z = RationalRingElem(A, 1, _random_bpoly(A, B, random.Random(1)),
                         _random_bpoly(A, B, random.Random(2)))
    assert hash(z) == hash(("ratring", 1))


@pytest.mark.parametrize("A,pi", [(padic_ctx(5, 8), [2, 0, 1]),
                                  (laurent_ctx(3, 8), [1, 0, 1])])
def test_residue_map_refuses_b_coefficients(A, pi):
    # a fraction over B = A[X]/(pi), as conv_to_brep builds it, has no
    # image in kappa(t); it once raised AttributeError in _coeff_residue
    B = QuotCtx(A, Poly.from_ints(A, pi))
    rng = random.Random(0)
    v = Rep1.from_fractions(A, [random_ratring_elem(A, 1, rng)
                                for _ in range(2)])
    with pytest.raises(ContextMismatch, match="B = A"):
        residue_map(conv_to_brep(A, B, v))


# --- delta-kernel test ----------------------------------------------------

def test_delta_true_on_constant_entry_classes():
    A = padic_ctx(5, 8)
    rng = random.Random(9)
    for _ in range(20):
        entries = [RationalRingElem.const(A, 1, A.random_unit(rng))
                   for _ in range(2)]
        assert delta_kernel_check(symbol(A, entries))


def test_delta_false_on_genuinely_varying_symbol():
    A = laurent_ctx(3, 8)
    tvar = RationalRingElem(A, 1, mp(A, [(0, 1), (1, 1)]), mp(A, [(0, 1)]))
    two = RationalRingElem.const(A, 1, A.from_int(2))
    s = symbol(A, [tvar, two])  # {1 + t, 2} moves with t
    assert not delta_kernel_check(s)


def test_delta_rejects_non_unit_entries():
    A = padic_ctx(5, 8)
    bad = RationalRingElem(A, 1, mp(A, [(0, 5)]), mp(A, [(0, 1)]))
    with pytest.raises(NonUnitEntry):
        delta_kernel_check(symbol(A, [bad, RationalRingElem.const(A, 1, A.one())]))


def test_delta_vacuous_above_degree_two():
    A = padic_ctx(5, 8)
    tvar = RationalRingElem(A, 1, mp(A, [(0, 1), (1, 1)]), mp(A, [(0, 1)]))
    c = RationalRingElem.const(A, 1, A.from_int(2))
    assert delta_kernel_check(symbol(A, [tvar, c, c]))


def _old_specialization_points(kappa, count):
    # the delta test's point list before the walk over F_q and its
    # extensions moved into finite_field
    out = []
    for j in range(1, 4):
        big = ff_ctx(kappa.p, kappa.f * j)
        emb = ff_embedding(kappa, big)
        for c in list(big.elements())[1:]:  # the nonzero elements
            if c.is_one():
                continue
            if j > 1 and any(c ** (kappa.p ** (kappa.f * i)) == c
                             for i in range(1, j) if j % i == 0):
                continue
            out.append((big, emb, c))
            if len(out) >= count:
                return out
    return out


@pytest.mark.parametrize("A", [padic_ctx(2, 4), padic_ctx(3, 4),
                               laurent_ctx(4, 4), padic_ctx(5, 4),
                               laurent_ctx(9, 4), padic_ctx(17, 4),
                               padic_ctx(19, 4)])
def test_delta_specializes_at_the_old_points(monkeypatch, A):
    # {t} specializes to {c}: a k_equal that records c and answers True
    # lets the test visit every point it samples
    seen = []

    def spy(a, b):
        seen.append((a.ctx.base, b.terms[0].entries[0].num.lc))
        return True

    monkeypatch.setattr(rational_ring, "k_equal", spy)
    tvar = RationalRingElem(A, 1, mp(A, [(1, 1)]), mp(A, [(0, 1)]))
    assert delta_kernel_check(symbol(A, [tvar]))
    old = _old_specialization_points(A.residue_field,
                                     rational_ring.DELTA_SAMPLE_POINTS)
    assert seen == [(big, c) for big, _, c in old]


# --- base change ----------------------------------------------------------

def test_base_change_rejects_reducible_residue():
    A = padic_ctx(5, 8)
    pi = Poly.from_ints(A, [-1, 0, 1])  # X^2 - 1 splits mod 5
    with pytest.raises(ResidueReducible):
        base_change_roundtrip(A, pi, random.Random(0))


def test_base_change_quadratic_over_z5():
    A = padic_ctx(5, 8)
    pi = Poly.from_ints(A, [2, 0, 1])  # X^2 + 2 irreducible mod 5
    assert base_change_roundtrip(A, pi, random.Random(1), samples=4)


def test_base_change_cubic_over_z3():
    # regression: cubic towers stress the inversion of denominators of
    # representation 2
    A = padic_ctx(3, 5)
    pi = Poly.from_ints(A, [1, 0, 2, 1])  # X^3 + 2X^2 + 1 irreducible mod 3
    assert base_change_roundtrip(A, pi, random.Random(2), samples=3)


def test_base_change_over_laurent_base():
    A = laurent_ctx(3, 8)
    pi = Poly.from_ints(A, [1, 0, 1])  # X^2 + 1 irreducible over F_3
    assert base_change_roundtrip(A, pi, random.Random(3), samples=3)


# --- the norm inverse against the elimination it replaced ---------------
#
# Test-only references: the library used to hold representation 1 as d
# independent fractions of A(t), multiply them coordinate by coordinate,
# and invert a denominator D of B(t) by Gaussian elimination on D y = 1.


def _fractions(A, polys):
    return [RationalRingElem.from_poly(A, f) for f in polys]


def ref_rep1_mul(A, pi, x, y):
    """Coordinatewise product of two lists of d fractions, reduced mod pi."""
    d = pi.degree
    zero = RationalRingElem.from_poly(A, MultiPoly.zero(A, 1))
    out = [zero] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = out[i + j] + a * b
    while len(out) > d:
        top = out.pop()
        i = len(out) - d
        for j in range(d):
            out[i + j] = out[i + j] - top * RationalRingElem.const(
                A, 1, pi.coeffs[j])
    return out


def ref_invert(A, B, den):
    """D^-1 as d fractions: Gaussian elimination with unit pivots."""
    d = B.degree
    cols, col = [], den
    for _ in range(d):
        cols.append(_fractions(A, _split_bpoly(A, B, col)))
        col = col.scale(B.theta())
    zero = RationalRingElem.from_poly(A, MultiPoly.zero(A, 1))
    one = RationalRingElem.from_poly(A, MultiPoly.one(A, 1))
    rows = [[cols[j][i] for j in range(d)] + [one if i == 0 else zero]
            for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if is_unit(rows[r][c]))
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = rows[c][c].inverse()
        rows[c] = [x * inv for x in rows[c]]
        for r in range(d):
            if r != c and not rows[r][c].is_zero():
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][d] for i in range(d)]


def _random_bpoly(A, B, rng):
    """A polynomial over B in S, with every X-coordinate drawn."""
    return _join_bpoly(A, B, [random_multipoly(A, 1, rng, ensure_s=i == 0)
                              for i in range(B.degree)])


# pi residue-irreducible of degree 2 and 3 over F_3 and over F_5
NORM_CASES = [(ctx(q, 6), pi) for ctx in (padic_ctx, laurent_ctx)
              for q, pis in ((3, ([1, 0, 1], [1, -1, 0, 1])),
                             (5, ([2, 0, 1], [1, 1, 0, 1])))
              for pi in pis]


NORM_IDS = [f"{A.model}:{A.q}-d{len(pi) - 1}" for A, pi in NORM_CASES]


@pytest.mark.parametrize("A,pi", NORM_CASES, ids=NORM_IDS)
def test_norm_inverse_agrees_with_elimination(A, pi):
    pi = Poly.from_ints(A, pi)
    B = QuotCtx(A, pi)
    rng = random.Random(A.q * 10 + pi.degree)
    for _ in range(3):
        num, den = _random_bpoly(A, B, rng), _random_bpoly(A, B, rng)
        new = conv_to_arep(A, B, RationalRingElem(A, 1, num, den))
        old = ref_rep1_mul(A, pi, _fractions(A, _split_bpoly(A, B, num)),
                           ref_invert(A, B, den))
        assert all(RationalRingElem(A, 1, n, new.den).same_as(o)
                   for n, o in zip(new.nums, old))


@pytest.mark.parametrize("A,pi", NORM_CASES[:2] + NORM_CASES[4:6],
                         ids=NORM_IDS[:2] + NORM_IDS[4:6])
def test_module_product_agrees_with_coordinatewise_product(A, pi):
    pi = Poly.from_ints(A, pi)
    rng = random.Random(A.q + pi.degree)
    for _ in range(3):
        x = [random_ratring_elem(A, 1, rng) for _ in range(pi.degree)]
        y = [random_ratring_elem(A, 1, rng) for _ in range(pi.degree)]
        new = rep1_mul(A, pi, Rep1.from_fractions(A, x),
                       Rep1.from_fractions(A, y))
        old = ref_rep1_mul(A, pi, x, y)
        assert all(RationalRingElem(A, 1, n, new.den).same_as(o)
                   for n, o in zip(new.nums, old))


def test_representation_round_trip_keeps_the_shared_denominator():
    A = padic_ctx(5, 8)
    B = QuotCtx(A, Poly.from_ints(A, [2, 0, 1]))
    v = Rep1.from_fractions(A, [random_ratring_elem(A, 1, random.Random(4))
                                for _ in range(2)])
    assert rep1_same(A, conv_to_arep(A, B, conv_to_brep(A, B, v)), v)


def test_denominator_with_norm_outside_s_is_rejected(monkeypatch):
    A = padic_ctx(5, 8)
    B = QuotCtx(A, Poly.from_ints(A, [2, 0, 1]))
    real = rational_ring._adj_column

    def norm_times_p(A_, M):
        adj, det = real(A_, M)
        return adj, det.scale(A_.uniformizer())

    monkeypatch.setattr(rational_ring, "_adj_column", norm_times_p)
    z = RationalRingElem(A, 1, _random_bpoly(A, B, random.Random(1)),
                         _random_bpoly(A, B, random.Random(2)))
    with pytest.raises(EliminationFailed):
        conv_to_arep(A, B, z)


_WRONG_ADJUGATE = """
import random
import traceback
from milnorforge import rational_ring as rr
from milnorforge.arith.local import padic_ctx
from milnorforge.arith.poly import Poly
from milnorforge.errors import SelfCheckFailed
from milnorforge.ratfunc import QuotCtx
A = padic_ctx(5, 8)
B = QuotCtx(A, Poly.from_ints(A, [2, 0, 1]))
rng = random.Random(5)
num, den = (rr._join_bpoly(A, B, [rr.random_multipoly(A, 1, rng, ensure_s=True)
                                  for _ in range(2)]) for _ in range(2))
real = rr._adj_column


def wrong(A_, M):  # adds 1 to the first coordinate of adj(M) e_0
    adj, det = real(A_, M)
    return [adj[0] + rr.MultiPoly.one(A_, 1)] + adj[1:], det


rr._adj_column = wrong
try:
    rr.conv_to_arep(A, B, rr.RationalRingElem(A, 1, num, den))
except SelfCheckFailed as e:
    print("raised in", traceback.extract_tb(e.__traceback__)[-1].name, e)
"""


def test_adjugate_self_check_runs_under_python_O(run_python_O):
    out = run_python_O(_WRONG_ADJUGATE)
    assert out.returncode == 0, out.stderr
    assert "raised in conv_to_arep" in out.stdout
