"""The checked computations of the in-process workloads.

Each op turns the plain data from inputs.py into library objects, runs one
computation and checks it against an independent identity or oracle.  It
returns (ok, answer); the answers of a pass are hashed into its digest.
Import this module only after any tracing wrappers are installed, so the
names bound here are the wrapped ones.
"""

from __future__ import annotations

import random

from milnorforge.arith.finite_field import ff_ctx_q
from milnorforge.arith.laurent import LaurentSeries
from milnorforge.arith.local import laurent_ctx, padic_ctx
from milnorforge.arith.padic import PadicNumber
from milnorforge.arith.poly import Poly
from milnorforge.bass_tate import (
    bt_section,
    functoriality_check,
    k_equal,
    norm,
    projection_formula_check,
    reciprocity_check,
    residue_vector,
)
from milnorforge.errors import ResidueReducible
from milnorforge.localk import (
    divisibility_witness,
    hilbert,
    lift_mod_m,
    parse_certificate,
    qf_oracle,
    reduce_mod_m,
    serialize_certificate,
    tame,
    verify_certificate,
)
from milnorforge.ratfunc import QuotCtx, QuotElem, RatFuncCtx, RatFuncElem
from milnorforge.rational_ring import (
    MultiPoly,
    RationalRingElem,
    base_change_roundtrip,
    delta_kernel_check,
    is_unit,
    residue_map,
    s_member,
)
from milnorforge.symbols import ff_kgroup, symbol


def build_context(model: str, q: int, prec: int):
    if model == "padic":
        return padic_ctx(q, prec)
    if model == "laurent":
        return laurent_ctx(q, prec)
    return RatFuncCtx(ff_ctx_q(q), "t")


def build_contexts(specs) -> dict:
    """The set-up phase: every ring the workload's ops use."""
    return {tuple(s): build_context(*s) for s in specs}


# --- plain data -> library objects ------------------------------------------


def ff_elem(k, code: int):
    return k.zero() if code == 0 else k.from_enc(code)


def local_unit(ctx, data):
    if isinstance(data, int):
        return PadicNumber(ctx.p, ctx.prec, 0, data)
    k = ctx.residue_field
    return LaurentSeries(k, ctx.prec, 0, [ff_elem(k, c) for c in data])


def local_integral(ctx, data):
    if data is None:
        return ctx.zero()
    k, unit = data
    return local_unit(ctx, unit) * ctx.uniformizer() ** k


def ff_poly(k, codes) -> Poly:
    return Poly(k, [ff_elem(k, c) for c in codes])


def ratfunc(F: RatFuncCtx, data) -> RatFuncElem:
    num, den = data
    return RatFuncElem(F, ff_poly(F.base, num), ff_poly(F.base, den).monic())


def multipoly(A, terms) -> MultiPoly:
    return MultiPoly(A, 1, {(e,): local_integral(A, c) for e, c in terms})


def ratring(A, data) -> RationalRingElem:
    return RationalRingElem(A, 1, multipoly(A, data[0]), multipoly(A, data[1]))


# --- local_certificates -------------------------------------------------------


def op_certificate(ctxs, op):
    """reduce -> lift -> witness -> serialize -> parse -> verify."""
    ctx = ctxs[tuple(op["ring"])]
    ell = op["ell"]
    a = symbol(ctx, [local_unit(ctx, e) for e in op["entries"]])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
    cert = divisibility_witness(ctx, a - back, ell)
    text = serialize_certificate(cert)
    result = verify_certificate(parse_certificate(text))
    return result.ok and cert.ell == ell, text


def op_tame(ctxs, op):
    """tame{u*pi^k, v} = k*{v bar}, read as a discrete log in kappa^x."""
    ctx = ctxs[tuple(op["ring"])]
    u, v = (local_unit(ctx, e) for e in op["entries"])
    k = op["k"]
    a = symbol(ctx, [u * ctx.uniformizer() ** k, v])
    out = tame(ctx, a)
    kappa = ctx.residue_field
    got = ff_kgroup(kappa.q, 1).vector_of(out)
    want = (k * ctx.residue(v).dlog()) % (kappa.q - 1) if kappa.q > 2 else 0
    return got == [want], out.serialize()


def op_hilbert(ctxs, op):
    """Q_2 Hilbert symbol against the quadratic-form sweep at B = 8."""
    ctx = ctxs[("padic", 2, 8)]
    x, y = ctx.from_int(op["a"]), ctx.from_int(op["b"])
    h = hilbert(ctx, x, y)
    return (h == 0) == qf_oracle(ctx, x, y, 8), str(h)


# --- function_fields ------------------------------------------------------------


def _ratfunc_ctx(ctxs, q):
    return ctxs[("ratfunc", q, 0)]


def op_reciprocity(ctxs, op):
    F = _ratfunc_ctx(ctxs, op["q"])
    e = [ratfunc(F, d) for d in op["entries"]]
    a = symbol(F, e[:2]) + symbol(F, e[2:]).scale(op["scale"])
    return reciprocity_check(a), a.serialize()


def op_section(ctxs, op):
    """The Bass-Tate section round trip on a residue vector."""
    F = _ratfunc_ctx(ctxs, op["q"])
    v = residue_vector(symbol(F, [ratfunc(F, d) for d in op["entries"]]))
    return v.same_finite(residue_vector(bt_section(v))), v.serialize()


def op_norm(ctxs, op):
    """The norm along X - t is the identity on K_2."""
    F = _ratfunc_ctx(ctxs, op["q"])
    x, y = (ratfunc(F, d) for d in op["entries"])
    B = QuotCtx(F, Poly(F, [-F.gen(), F.one()]))
    n = norm(symbol(B, [B.from_base(x), B.from_base(y)]))
    return k_equal(n, symbol(F, [x, y])), n.serialize()


def _sqrt_t(F):
    return QuotCtx(F, Poly(F, [-F.gen(), F.zero(), F.one()]))


def op_projection(ctxs, op):
    F = _ratfunc_ctx(ctxs, op["q"])
    Fp = _sqrt_t(F)
    x = symbol(F, [ratfunc(F, op["x"])])
    y = symbol(Fp, [QuotElem(Fp, Poly(F, [F.zero() if c is None
                                          else ratfunc(F, c)
                                          for c in op["y"]]))])
    return projection_formula_check(x, y), y.serialize()


def op_tower(ctxs, op):
    """Norm functoriality along F(sqrt t)(sqrt(sqrt t + 1))."""
    F = _ratfunc_ctx(ctxs, op["q"])
    Fp = _sqrt_t(F)
    pi2 = Poly(Fp, [-(Fp.theta() + Fp.one()), Fp.zero(), Fp.one()])
    g = Poly(F, [F.zero() if c is None else ratfunc(F, c) for c in op["g"]]
             + [F.one()])
    return functoriality_check(Fp.pi, pi2, g), g.serialize()


# --- rational_ring ------------------------------------------------------------


def op_member(ctxs, op):
    """S-membership, units and multiplicativity of the residue map."""
    A = ctxs[tuple(op["ring"])]
    f = multipoly(A, op["f"])
    x, y = ratring(A, op["x"]), ratring(A, op["y"])
    ok = s_member(f) if op["ensure_s"] else True
    ok = ok and is_unit(x) == s_member(x.num)
    r = residue_map(x * y)
    ok = ok and r == residue_map(x) * residue_map(y)
    return ok, r.serialize()


def op_base_change(ctxs, op):
    """First residue-irreducible candidate pi, then the B(t) round trips."""
    A = ctxs[tuple(op["ring"])]
    rng = random.Random(op["rng_seed"])
    for c0, c1 in op["candidates"]:
        pi = Poly(A, [local_unit(A, c0), local_unit(A, c1), A.one()])
        try:
            ok = base_change_roundtrip(A, pi, rng, samples=1)
        except ResidueReducible:
            continue
        return ok, pi.serialize("X")
    return False, "no residue-irreducible candidate"


def op_delta_const(ctxs, op):
    """Classes with constant entries lie in the delta kernel."""
    A = ctxs[tuple(op["ring"])]
    s = symbol(A, [RationalRingElem.const(A, 1, local_unit(A, e))
                   for e in op["entries"]])
    return delta_kernel_check(s), s.serialize()


def op_delta_moving(ctxs, op):
    """{u0 + t, lift(g)} moves with t, so it is not in the kernel."""
    A = ctxs[tuple(op["ring"])]
    kappa = A.residue_field
    first = RationalRingElem.from_poly(A, MultiPoly(
        A, 1, {(0,): local_unit(A, op["u0"]), (1,): A.one()}))
    vbar = kappa.gen() if not kappa.gen().is_one() else kappa.from_int(-1)
    second = RationalRingElem.const(A, 1, A.lift_residue(vbar))
    s = symbol(A, [first, second])
    return not delta_kernel_check(s), s.serialize()


OPS = {
    "certificate": op_certificate,
    "tame": op_tame,
    "hilbert": op_hilbert,
    "reciprocity": op_reciprocity,
    "section": op_section,
    "norm": op_norm,
    "projection": op_projection,
    "tower": op_tower,
    "member": op_member,
    "base_change": op_base_change,
    "delta_const": op_delta_const,
    "delta_moving": op_delta_moving,
}


def run_op(ctxs, op):
    return OPS[op["kind"]](ctxs, op)
