"""Sampled checks (the Bass-Tate check verbs, sampled base change) and the
named invariant suites, as (ok, counterexample, fields) triples like those
of localk.gersten_check: the verdict, a thunk that builds what a failed
check shows, and the record's named values in order.  A caller reads each
triple, and calls its thunk, before it draws the next; all randomness
comes from the rng passed in."""

from __future__ import annotations

from .arith.factor import is_irreducible
from .arith.finite_field import ff_ctx_q
from .arith.local import laurent_ctx, padic_ctx
from .arith.poly import Poly
from .bass_tate import (bt_section, functoriality_check, k_equal,
                         projection_formula_check, reciprocity_check,
                         residue_vector)
from .errors import BadInput, DegreeTooLarge, MilnorForgeError, SelfCheckFailed
from .localk import (divisibility_witness, hilbert, lift_mod_m, qf_oracle,
                     reduce_mod_m)
from .ratfunc import QuotCtx, QuotElem, RatFuncCtx
from .rational_ring import base_change_roundtrip, random_integral
from .symbols import MilnorClass, ff_kgroup, symbol

SUITE_PRECISION = 8


def sampled_checks(op: str, samples: int, what: str, draw, redraw=()):
    """`samples` triples, each from the next draw() that returns a triple
    instead of None or one of the `redraw` errors, within 50 draws per
    sample; op and the sample's index end its fields.  A shortfall is one
    failed triple.  A failed self-check always propagates, and a negative
    count is refused."""
    if samples < 0:
        raise BadInput(f"the sample count must be >= 0, got {samples}")
    done = 0
    for _ in range(50 * samples):
        if done == samples:
            return
        try:
            got = draw()
        except SelfCheckFailed:
            raise
        except redraw:
            continue
        if got is not None:
            ok, counterexample, fields = got
            yield ok, counterexample, dict(fields, op=op, index=done)
            done += 1
    if done < samples:
        yield False, lambda: f"only {done} {what} sampled", {"op": op}


def _sample_quot_field(F: RatFuncCtx, rng, degree: int) -> QuotCtx | None:
    """F[X]/(pi) for a random pi, if the context decides pi irreducible;
    None for a pi it rejects or cannot decide."""
    base = F.base
    coeffs = [F.random_nonzero(rng, 1) if rng.random() < 0.5
              else F.from_const(base.random_nonzero(rng))
              for _ in range(degree)] + [F.one()]
    if all(c.den.is_one() and c.num.degree <= 1 for c in coeffs):
        B = QuotCtx(F, Poly(F, coeffs))
        try:
            if B.pi_is_irreducible():
                return B
        except DegreeTooLarge:
            pass
    return None


def _random_local_pi(A, rng):
    """A monic pi of degree 2 or 3 over A whose residue, drawn first, is
    irreducible; None when that residue is reducible (B = A[X]/pi would not
    be local).  Each lower coefficient is the lift of its residue plus the
    uniformizer times random_integral."""
    kappa = A.residue_field
    d = 2 + rng.randrange(2)
    pibar = Poly(kappa, [kappa.random_element(rng) for _ in range(d)]
                 + [kappa.one()])
    if not is_irreducible(pibar):
        return None
    return Poly(A, [(A.zero() if c.is_zero() else A.lift_residue(c))
                    + A.uniformizer() * random_integral(A, rng)
                    for c in map(pibar.coeff, range(d))] + [A.one()])


def reciprocity_checks(F: RatFuncCtx, rng, samples: int):
    """Weil reciprocity, and the Bass-Tate section's round trip, on random
    symbols {f, g} over F_q(t)."""

    def draw():
        a = symbol(F, [F.random_nonzero(rng, 2) for _ in range(2)])
        ok1 = reciprocity_check(a)
        v = residue_vector(a)
        ok2 = residue_vector(bt_section(v)).same_finite(v)
        return ok1 and ok2, a.serialize, dict(
            reciprocity=str(ok1).lower(), section_round_trip=str(ok2).lower())

    return sampled_checks("reciprocity_check", samples, "symbols", draw)


def projection_checks(F: RatFuncCtx, rng, samples: int):
    """The projection formula along random quadratic extensions of F_q(t)."""

    def draw():
        B = _sample_quot_field(F, rng, 2)
        if B is None:
            return None
        x = symbol(F, [F.random_nonzero(rng, 1)])
        y = symbol(B, [B.theta() if rng.random() < 0.5
                       else QuotElem(B, Poly.const(F, F.random_nonzero(rng, 1)))])
        return (projection_formula_check(x, y),
                lambda: (x.serialize(), y.serialize()), {})

    return sampled_checks("projection_formula_check", samples, "extensions",
                          draw)


def tower_checks(F: RatFuncCtx, rng, samples: int):
    """Functoriality of the norm along random towers X^2 + c*t, then
    Y^2 - (theta + s); a tower the sweep cannot finish is drawn again."""
    base = F.base
    if base.p == 2:
        raise BadInput("check-tower needs odd characteristic: its towers "
                       "X^2 + c*t and Y^2 - (theta + s) are inseparable "
                       "when p = 2")

    def unit():
        return F.from_const(base.random_nonzero(rng))

    def draw():
        # X^2 + c0*t is Eisenstein at t; norm decides it once anyway
        pi1 = Poly(F, [unit() * F.gen(), F.zero(), F.one()])
        Fp = QuotCtx(F, pi1)
        shift = QuotElem(Fp, Poly.const(F, unit()))
        pi2 = Poly(Fp, [-(Fp.theta() + shift), Fp.zero(), Fp.one()])
        g = Poly(F, [F.one(), unit()])
        return (functoriality_check(pi1, pi2, g),
                lambda: (pi1.serialize(), g.serialize()), {})

    return sampled_checks("functoriality_check", samples, "towers", draw,
                          MilnorForgeError)


def base_change_checks(A, rng, samples: int, pi: Poly | None = None):
    """The base-change round trip of rational_ring along pi, once for any
    count >= 0, or along `samples` random local pi of degree 2 or 3."""

    def draw():
        p = _random_local_pi(A, rng) if pi is None else pi
        if p is None:
            return None
        return base_change_roundtrip(A, p, rng), lambda: p.serialize("X"), {}

    return sampled_checks("base_change_roundtrip",
                          samples if pi is None or samples < 0 else 1,
                          "local extensions", draw)


def kgroup_fields(q: int, n: int) -> tuple[list, dict]:
    """The invariant factors of K^M_n(F_q) and the fields of its record."""
    inv = ff_kgroup(q, n).invariant_factors
    return inv, {"op": "ff_kgroup", "q": q, "n": n,
                 "invariants": "[" + ",".join(map(str, inv)) + "]"}


# the suites: each takes the rng and the quadratic-form oracle's precision
def _steinberg(rng, oracleprec: int):
    # residue vectors of {f, 1-f} vanish everywhere over F_q(t)
    for q in (3, 5):
        F = RatFuncCtx(ff_ctx_q(q), "t")
        for i in range(20):
            f = F.random_nonzero(rng, 2)
            if (F.one() - f).is_zero():
                continue
            a = symbol(F, [f, F.one() - f])
            yield (k_equal(a, MilnorClass.zero(F, 2)), a.serialize,
                   {"op": "steinberg_residues", "q": q, "index": i})
    # hilbert symbol of (a, 1-a) over Q_2
    ctx = padic_ctx(2, SUITE_PRECISION)
    for i, a_int in enumerate((-1, 2, -2, 5, 10, -4)):
        a = ctx.from_int(a_int)
        yield (hilbert(ctx, a, ctx.one() - a) == 0, lambda: a_int,
               {"op": "hilbert_steinberg", "a": a_int, "index": i})


def _hilbert_table(rng, oracleprec: int):
    ctx = padic_ctx(2, max(SUITE_PRECISION, oracleprec))
    reps = [1, -1, 2, -2, 5, -5, 10, -10]
    elems = {r: ctx.from_int(r) for r in reps}
    image = set()
    for a in reps:
        for b in reps:
            h = hilbert(ctx, elems[a], elems[b])
            o = qf_oracle(ctx, elems[a], elems[b],
                          search_precision=oracleprec)
            image.add(h)
            ok = (h == 0) == o and h == hilbert(ctx, elems[b], elems[a])
            yield (ok, lambda: (a, b, h, o),
                   {"op": "hilbert_vs_oracle", "a": a, "b": b, "value": h})
    yield (image == {0, 1}, lambda: sorted(image),
           {"op": "hilbert_image", "size": len(image)})


def _reciprocity(rng, oracleprec: int):
    for q in (3, 5):
        F = RatFuncCtx(ff_ctx_q(q), "t")
        for i in range(25):
            a = symbol(F, [F.random_nonzero(rng, 2),
                           F.random_nonzero(rng, 2)])
            yield (reciprocity_check(a), a.serialize,
                   {"op": "reciprocity_check", "q": q, "index": i})


def _certificates(rng, oracleprec: int):
    for ctx, ells in ((padic_ctx(5, SUITE_PRECISION), (2, 3)),
                      (padic_ctx(2, SUITE_PRECISION), (3, 7)),
                      (laurent_ctx(3, SUITE_PRECISION), (2, 4))):
        for ell in ells:
            for i in range(10):
                a = symbol(ctx, [ctx.random_unit(rng) for _ in range(2)])
                lifted = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
                divisibility_witness(ctx, a - lifted, ell)  # replays it
                yield (True, None, {"op": "divisibility_witness", "p": ctx.p,
                                    "ell": ell, "index": i})


def _ff_kgroups(rng, oracleprec: int):
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n in (1, 2, 3):
            inv, fields = kgroup_fields(q, n)
            want = [q - 1] if n == 1 and q > 2 else []
            yield inv == want, lambda: inv, fields


SUITES = {
    "STEINBERG": _steinberg,
    "HILBERT_TABLE": _hilbert_table,
    "RECIPROCITY": _reciprocity,
    "CERTIFICATES": _certificates,
    "FF_KGROUPS": _ff_kgroups,
}
