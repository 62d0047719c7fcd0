"""Residue vectors, reciprocity, the section, norms and their compatibilities."""

import random

import pytest

from milnorforge.arith.finite_field import ff_ctx
from milnorforge.arith.poly import Poly
from milnorforge import ratfunc
from milnorforge.bass_tate import (
    _finite_residues,
    bt_section,
    composite_minimal_poly,
    functoriality_check,
    k_equal,
    norm,
    projection_formula_check,
    reciprocity_check,
    residue_vector,
)
from milnorforge.errors import ContextMismatch, NotIrreducible
from milnorforge.ratfunc import Place, QuotCtx, RatFuncCtx
from milnorforge.symbols import symbol


def random_deg2_class(F, rng, terms=2):
    out = None
    for _ in range(terms):
        s = symbol(F, [F.random_nonzero(rng, 2), F.random_nonzero(rng, 2)])
        s = s.scale(rng.randint(-2, 2) or 1)
        out = s if out is None else out + s
    return out


def test_residue_vector_frozen_example():
    F = RatFuncCtx(ff_ctx(3))
    t = F.gen()
    a = symbol(F, [t, t - F.one()])
    v = residue_vector(a)
    assert v.serialize() == ("ff(3,1):g^0*t^1 -> deg:1 {ff(3,1):g^1};"
                             " inf -> deg:1 {ff(3,1):g^1}")


def test_residue_vector_of_constant_symbol_is_finitely_trivial():
    F = RatFuncCtx(ff_ctx(5))
    a = symbol(F, [F.from_int(2), F.from_int(3)])
    assert not residue_vector(a).finite


@pytest.mark.parametrize("q", [3, 5])
def test_reciprocity_on_random_classes(q):
    F = RatFuncCtx(ff_ctx(q))
    rng = random.Random(q)
    for _ in range(25):
        assert reciprocity_check(random_deg2_class(F, rng))


def test_section_round_trip_on_finite_places():
    for q in (3, 5):
        F = RatFuncCtx(ff_ctx(q))
        rng = random.Random(q + 40)
        for _ in range(15):
            v = residue_vector(random_deg2_class(F, rng))
            s = bt_section(v)
            assert v.same_finite(residue_vector(s))


def test_steinberg_classes_vanish_in_k2_of_function_field():
    for q in (3, 5):
        F = RatFuncCtx(ff_ctx(q))
        rng = random.Random(q + 80)
        zero2 = symbol(F, [F.one(), F.one()]) - symbol(F, [F.one(), F.one()])
        for _ in range(15):
            f = F.random_nonzero(rng, 2)
            if (F.one() - f).is_zero():
                continue
            a = symbol(F, [f, F.one() - f])
            assert k_equal(a, zero2)


# --- norms ----------------------------------------------------------------

def test_norm_on_degree_one_matches_field_norm():
    # over kappa = F_3(t)[X]/(X^2+1): N(theta) = 1 since theta^2 = -1
    F = RatFuncCtx(ff_ctx(3))
    B = QuotCtx(F, Poly.from_ints(F, [1, 0, 1]))
    out = norm(symbol(B, [B.theta()]))
    assert k_equal(out, symbol(F, [F.one()]))


def test_norm_along_linear_polynomial_is_identity():
    for q in (3, 5):
        F = RatFuncCtx(ff_ctx(q))
        t = F.gen()
        B = QuotCtx(F, Poly(F, [-t, F.one()]))  # X - t: kappa = F itself
        rng = random.Random(q + 5)
        for _ in range(20):
            x = F.random_nonzero(rng, 2)
            y = F.random_nonzero(rng, 2)
            xi = symbol(B, [B.from_base(x), B.from_base(y)])
            assert k_equal(norm(xi), symbol(F, [x, y]))


def test_norm_degree_zero_is_multiplication_by_field_degree():
    F = RatFuncCtx(ff_ctx(3))
    t = F.gen()
    B = QuotCtx(F, Poly(F, [-t, F.zero(), F.one()]))  # degree 2
    from milnorforge.symbols import MilnorClass
    xi = MilnorClass(B, 0, [(3, ())])
    out = norm(xi)
    assert sum(term.coeff for term in out.terms) == 6


@pytest.mark.parametrize("q", [3, 5])
def test_projection_formula_on_samples(q):
    F = RatFuncCtx(ff_ctx(q))
    t = F.gen()
    B = QuotCtx(F, Poly(F, [-t, F.zero(), F.one()]))  # X^2 - t
    rng = random.Random(q + 9)
    for _ in range(10):
        x = symbol(F, [F.random_nonzero(rng, 1)])
        y = symbol(B, [B.random_nonzero(rng)])
        assert projection_formula_check(x, y)


@pytest.mark.parametrize("q", [3, 5])
def test_functoriality_along_quadratic_tower(q):
    # F -> F[X]/(X^2 - t) -> [Y]/(Y^2 - (theta + 1)): total degree 4
    F = RatFuncCtx(ff_ctx(q))
    t = F.gen()
    pi1 = Poly(F, [-t, F.zero(), F.one()])
    Fp = QuotCtx(F, pi1)
    shift = Fp.theta() + Fp.one()
    pi2 = Poly(Fp, [-shift, Fp.zero(), Fp.one()])
    rng = random.Random(q + 33)
    for _ in range(5):
        d = rng.randint(1, 3)
        coeffs = [F.random_element(rng, 1) for _ in range(d)] + [F.one()]
        g = Poly(F, coeffs)
        if g.degree < 1:
            continue
        assert functoriality_check(pi1, pi2, g)


@pytest.mark.parametrize("q", [3, 5])
def test_composite_minimal_poly_rejects_degenerate_towers(q):
    # theta2 = +-theta1 and theta2 = +-1 generate a proper subfield of the
    # degree-4 tower, so mu is a square and has no irreducibility
    # certificate
    F = RatFuncCtx(ff_ctx(q))
    t = F.gen()
    pi1 = Poly(F, [-t, F.zero(), F.one()])
    Fp = QuotCtx(F, pi1)
    for c in (Fp.theta() * Fp.theta(), Fp.one()):
        pi2 = Poly(Fp, [-c, Fp.zero(), Fp.one()])
        with pytest.raises(NotIrreducible):
            composite_minimal_poly(pi1, pi2)


def test_quotient_field_decides_its_pi_once(monkeypatch):
    F = RatFuncCtx(ff_ctx(3))
    t = F.gen()
    B = QuotCtx(F, Poly(F, [-t, F.zero(), F.one()]))
    calls = []
    real = ratfunc.irreducible_over
    monkeypatch.setattr(ratfunc, "irreducible_over",
                        lambda f: calls.append(f) or real(f))
    # two norms over B, one irreducibility test
    assert projection_formula_check(symbol(F, [t + F.one()]),
                                    symbol(B, [B.theta()]))
    assert len(calls) == 1
    # a tower whose middle field has decided pi1 does not test it again
    Fp = QuotCtx(F, B.pi)
    assert Fp.pi_is_irreducible() and len(calls) == 2
    pi2 = Poly(Fp, [-(Fp.theta() + Fp.one()), Fp.zero(), Fp.one()])
    assert functoriality_check(B.pi, pi2, Poly(F, [F.one(), F.one()]))
    assert B.pi not in calls[2:]


def test_functoriality_check_rejects_pi2_over_another_field():
    F = RatFuncCtx(ff_ctx(3))
    t = F.gen()
    pi1 = Poly(F, [-t, F.zero(), F.one()])
    other = QuotCtx(F, Poly(F, [t, F.zero(), F.one()]))
    pi2 = Poly(other, [-other.theta(), other.zero(), other.one()])
    with pytest.raises(ContextMismatch):
        functoriality_check(pi1, pi2, Poly(F, [F.one(), F.one()]))


def test_finite_residues_skip_one_place():
    F = RatFuncCtx(ff_ctx(5))
    t = F.gen()
    a = symbol(F, [t, t + F.from_int(2)])  # residues 1/2 at t, 3 at t + 2
    P = Place(F, t.num)
    full = _finite_residues(a)
    rest = _finite_residues(a, skip=P)
    assert P in full and len(full) == 2
    assert {Q: r.serialize() for Q, r in rest.items()} == \
        {Q: r.serialize() for Q, r in full.items() if Q != P}


_DRIFTING_RESIDUE = """
import traceback
from milnorforge import bass_tate
from milnorforge.arith.finite_field import ff_ctx
from milnorforge.arith.poly import Poly
from milnorforge.errors import SelfCheckFailed
from milnorforge.ratfunc import QuotCtx, RatFuncCtx
from milnorforge.symbols import symbol
F = RatFuncCtx(ff_ctx(3))
t = F.gen()
B = QuotCtx(F, Poly(F, [-t, F.zero(), F.one()]))  # X^2 - t
xi = symbol(B, [B.theta(), B.from_base(t + F.one())])
real = bass_tate.tame_at


def drifting(place, beta):  # doubles the residue at pi, which norm keeps
    r = real(place, beta)
    return r.scale(2) if place.poly is not None and place.poly == B.pi else r


bass_tate.tame_at = drifting
try:
    bass_tate.norm(xi)
except SelfCheckFailed as e:
    print("raised in", traceback.extract_tb(e.__traceback__)[-1].name, e)
"""


def test_norm_residue_drift_check_runs_under_python_O(run_python_O):
    out = run_python_O(_DRIFTING_RESIDUE)
    assert out.returncode == 0, out.stderr
    assert "raised in norm pi-residue drifted" in out.stdout
