"""Rational function fields, places, quotient fields, irreducibility tests."""

import random

import pytest

from milnorforge.arith.factor import is_irreducible
from milnorforge.arith.finite_field import ff_ctx, ff_ctx_q, ff_embedding
from milnorforge.arith.poly import Poly
from milnorforge.errors import NotAUnit, NotMonic, ZeroElement
from milnorforge.ratfunc import (
    Place,
    QuotCtx,
    RatFuncCtx,
    RatFuncElem,
    ff_sqrt,
    irreducible_by_specialization,
    irreducible_over,
    monic_irreducible_factors,
    ratfunc_sqrt,
    support,
    tame_at,
)
from milnorforge.symbols import symbol


def F3t():
    return RatFuncCtx(ff_ctx(3))


def test_fractions_reduce_to_lowest_terms():
    F = F3t()
    t = F.gen()
    x = (t * t - F.one()) / (t - F.one())  # (t-1)(t+1)/(t-1) = t+1
    assert x == t + F.one()


def _reference_normal_form(num: Poly, den: Poly):
    """Lowest terms over a monic denominator, gcd always run."""
    if den.is_zero():
        raise ZeroElement("zero denominator")
    g = num.gcd(den)
    if not g.is_one() and not g.is_zero():
        num = num // g
        den = den // g
    if not den.is_monic():
        den, num = den.monic_with(num)
    return num, den


NORMAL_FORM_FIELDS = {
    "F_2": lambda: RatFuncCtx(ff_ctx(2)),
    "F_3": lambda: RatFuncCtx(ff_ctx(3)),
    "F_4": lambda: RatFuncCtx(ff_ctx(2, 2)),
    "F_9": lambda: RatFuncCtx(ff_ctx(3, 2)),
    "F_2^20": lambda: RatFuncCtx(ff_ctx(2, 20)),
    "F_3(t)": lambda: RatFuncCtx(RatFuncCtx(ff_ctx(3)), "X"),
}


@pytest.mark.parametrize("name", NORMAL_FORM_FIELDS)
def test_normal_form_matches_the_always_gcd_reference(name):
    F = NORMAL_FORM_FIELDS[name]()
    K = F.base
    rng = random.Random(name)

    def poly(deg, monic=False):
        top = K.one() if monic else K.random_nonzero(rng)
        return Poly(K, [K.random_element(rng) for _ in range(deg)] + [top])

    zero = Poly.zero(K)
    pairs = []
    for _ in range(6):
        c, h = poly(0), poly(1)
        pairs += [(zero, c), (zero, poly(2)), (zero, poly(2, monic=True)),
                  (c, poly(2)), (c, poly(0)), (poly(2), c), (poly(2), poly(3)),
                  (poly(2) * h, poly(1) * h), (h.scale(c.lc), h),
                  (h * h, h.scale(c.lc))]
    shared = 0
    for num, den in pairs:
        want = _reference_normal_form(num, den)
        x = RatFuncElem(F, num, den)
        assert (x.num, x.den) == want, (num, den)
        assert x.den.is_monic()
        shared += not num.gcd(den).is_one()
    assert shared >= 18  # every h above is a common factor
    for num in (zero, poly(0), poly(2)):
        with pytest.raises(ZeroElement):
            RatFuncElem(F, num, zero)


def test_field_axioms_on_random_elements():
    F = RatFuncCtx(ff_ctx(5))
    rng = random.Random(7)
    for _ in range(30):
        x = F.random_nonzero(rng)
        y = F.random_element(rng)
        assert x * x.inverse() == F.one()
        assert x * (y + F.one()) == x * y + x
        assert (x + y) - y == x


def test_support_lists_zeros_and_poles():
    F = F3t()
    t = F.gen()
    x = (t * t - F.one()) / t
    places = support(x)
    assert len(places) == 3  # t-1, t+1 and t (pole); infinity is implicit
    assert all(not p.is_infinite for p in places)


def test_place_valuations_and_unit_part():
    F = F3t()
    t = F.gen()
    at_t = Place(F, Poly.from_ints(F.base, [0, 1]))
    x = (t * t - F.one()) / t
    assert at_t.valuation(x) == -1
    k, u = at_t.split(x)
    assert k == -1 and u * t ** k == x
    assert at_t.residue(u) == at_t.residue_ctx().from_int(-1)
    with pytest.raises(NotAUnit):
        at_t.residue(x)


def test_place_needs_a_monic_polynomial():
    F = F3t()
    with pytest.raises(NotMonic):
        Place(F, Poly.from_ints(F.base, [0, 2]))  # 2t


def test_infinity_place_valuation_is_minus_degree():
    F = F3t()
    t = F.gen()
    inf = Place(F, None)
    assert inf.valuation(t) == -1
    assert inf.valuation((t ** 3 + F.one()) / t) == -2
    assert inf.valuation(F.from_int(2)) == 0


def test_sum_of_valuations_times_degree_is_zero():
    # deg of a principal divisor vanishes: sum_v deg(v) * v(x) = 0
    F = RatFuncCtx(ff_ctx(5))
    rng = random.Random(13)
    inf = Place(F, None)
    for _ in range(20):
        x = F.random_nonzero(rng, max_deg=3)
        total = sum(p.degree * p.valuation(x) for p in support(x))
        total += inf.valuation(x)
        assert total == 0


def test_tame_at_frozen_example():
    F = F3t()
    t = F.gen()
    at_t = Place(F, Poly.from_ints(F.base, [0, 1]))
    a = symbol(F, [t, t - F.one()])
    assert tame_at(at_t, a).serialize() == "deg:1 {ff(3,1):g^1}"


def test_tame_at_place_away_from_support_is_zero():
    F = F3t()
    t = F.gen()
    away = Place(F, Poly.from_ints(F.base, [1, 0, 1]))
    a = symbol(F, [t, t - F.one()])
    assert tame_at(away, a).is_zero()


def test_monic_irreducible_factors_frozen():
    k = ff_ctx(3)
    f = Poly.from_ints(k, [1, 0, 1]) * Poly.from_ints(k, [2, 1]) ** 2
    factors = monic_irreducible_factors(f)
    assert [(p.serialize(), m) for p, m in factors] == [
        ("ff(3,1):g^1 + ff(3,1):g^0*t^1", 2),
        ("ff(3,1):g^0 + ff(3,1):g^0*t^2", 1),
    ]


def test_repeated_quartic_over_function_field_splits_by_derivative():
    # (X^2 - t)^2 (X - 1) over F_3(t): after the root 1 the rootless quartic
    # (X^2 - t)^2 is beyond the root search; gcd with its derivative splits it
    F = F3t()
    t = F.gen()
    quad = Poly(F, [-t, F.zero(), F.one()])
    lin = Poly(F, [-F.one(), F.one()])
    factors = monic_irreducible_factors(quad ** 2 * lin)
    assert factors == [(lin, 1), (quad, 2)]


def test_rootless_cubic_and_zero_root_over_function_field():
    F = F3t()
    t = F.gen()
    cubic = Poly(F, [-t, F.zero(), F.zero(), F.one()])  # X^3 - t
    assert monic_irreducible_factors(cubic) == [(cubic, 1)]
    x = Poly.x(F)
    # X^3 + t X = X (X^2 + t): the root 0 comes off first
    assert monic_irreducible_factors(x * Poly(F, [t, F.zero(), F.one()])) \
        == [(x, 1), (Poly(F, [t, F.zero(), F.one()]), 1)]


def test_quotient_field_adjoined_root():
    F = F3t()
    # theta^2 = -1 in F_3(t)[X]/(X^2+1)
    B = QuotCtx(F, Poly.from_ints(F, [1, 0, 1]))
    th = B.theta()
    assert th * th == B.from_int(-1)
    assert (th * th.inverse()).is_one()
    assert th.norm_to_base() == F.one()


def test_quotient_field_with_transcendental_constant():
    F = F3t()
    t = F.gen()
    # X^2 - t is irreducible: theta is a square root of t
    B = QuotCtx(F, Poly(F, [-t, F.zero(), F.one()]))
    th = B.theta()
    assert th * th == B.from_base(t)


def test_irreducibility_over_function_field():
    F = F3t()
    t = F.gen()
    assert irreducible_over(Poly(F, [-t, F.zero(), F.one()]))       # X^2 - t
    assert not irreducible_over(Poly(F, [-t * t, F.zero(), F.one()]))  # X^2 - t^2
    assert irreducible_by_specialization(Poly(F, [-t, F.zero(), F.one()]))


def _old_irreducible_by_specialization(f):
    # the certificate loop before the walk over F_q and its extensions
    # moved into finite_field: every point of every level, subfield points
    # included
    base = f.ctx.base
    f = f.monic()
    for j in range(1, 4):
        big = ff_ctx(base.p, base.f * j)
        emb = ff_embedding(base, big)
        for t0 in big.elements():
            spec = []
            for c in f.coeffs:
                d = c.den.map_coeffs(emb, big).eval(t0)
                if d.is_zero():
                    break
                spec.append(c.num.map_coeffs(emb, big).eval(t0) * d.inverse())
            else:
                fb = Poly(big, spec)
                if fb.degree == f.degree and is_irreducible(fb):
                    return True
    return False


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_specialization_certificate_agrees_with_the_old_loop(q):
    F = RatFuncCtx(ff_ctx_q(q))
    rng = random.Random(100 + q)
    t = F.gen()
    polys = [Poly(F, [-t, F.zero(), F.one()]),                  # X^2 - t
             Poly(F, [-t * t, F.zero(), F.one()]),              # X^2 - t^2
             Poly(F, [-t, F.zero(), F.zero(), F.zero(), F.one()])]  # X^4 - t
    for _ in range(8):
        d = rng.randint(2, 4)
        polys.append(Poly(F, [F.random_nonzero(rng, 1) for _ in range(d)]
                          + [F.one()]))
    polys.append(polys[-1] * polys[-2])  # reducible: neither certifies
    found = [irreducible_by_specialization(f) for f in polys]
    assert found == [_old_irreducible_by_specialization(f) for f in polys]
    assert True in found and False in found


def test_square_roots():
    k = ff_ctx(3)
    F = F3t()
    t = F.gen()
    assert ff_sqrt(k.from_int(1)) == k.from_int(1)
    for q in (2, 4, 8, 9, 25):
        elems = list(ff_ctx_q(q).elements())
        squares = {y * y for y in elems}
        for x in elems:
            r = ff_sqrt(x)
            assert (r is None) == (x not in squares)
            assert r is None or r * r == x
    r = ratfunc_sqrt(t * t)
    assert r * r == t * t
    assert ratfunc_sqrt(t) is None


_WRONG_POWERS = """
import traceback
from milnorforge.arith.finite_field import ff_ctx
from milnorforge.arith.poly import Poly
from milnorforge.errors import SelfCheckFailed
from milnorforge.ratfunc import RatFuncCtx, monic_irreducible_factors
f = Poly.from_ints(RatFuncCtx(ff_ctx(3)), [1, -2, 1])  # (X - 1)^2 over F_3(t)
real = Poly.__pow__
Poly.__pow__ = lambda self, k: real(self, min(k, 1))  # squares come out wrong
try:
    monic_irreducible_factors(f)
except SelfCheckFailed as e:
    print("raised in", traceback.extract_tb(e.__traceback__)[-1].name, e)
"""


def test_factorization_remultiply_check_runs_under_python_O(run_python_O):
    out = run_python_O(_WRONG_POWERS)
    assert out.returncode == 0, out.stderr
    assert ("raised in monic_irreducible_factors factorization failed"
            in out.stdout)
