"""End-to-end acceptance checks for the whole engine.

Each test covers one headline capability, prints a single PASS/FAIL line,
and enforces a wall-clock budget.  Run with `pytest -s` to see the lines
interleaved; without -s pytest shows them in the captured-output section.
"""

import random
import time

import pytest

from milnorforge.arith.finite_field import ff_ctx, ff_ctx_q
from milnorforge.arith.local import laurent_ctx, padic_ctx
from milnorforge.arith.poly import Poly
from milnorforge.bass_tate import (
    bt_section,
    functoriality_check,
    norm,
    k_equal,
    projection_formula_check,
    reciprocity_check,
    residue_vector,
)
from milnorforge.errors import ResidueReducible
from milnorforge.localk import (
    divisibility_witness,
    gersten_check,
    hilbert,
    lift_mod_m,
    qf_oracle,
    reduce_mod_m,
    verify_certificate,
)
from milnorforge.ratfunc import QuotCtx, RatFuncCtx
from milnorforge.rational_ring import (
    RationalRingElem,
    base_change_roundtrip,
    delta_kernel_check,
    is_unit,
    random_multipoly,
    random_ratring_elem,
    residue_map,
    s_member,
)
from milnorforge.symbols import ff_kgroup, symbol


def report(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] acceptance {number}: {label} "
          f"({elapsed:.1f}s, budget {budget}s)")
    assert ok, f"acceptance {number} failed"
    assert elapsed < budget, f"acceptance {number} over budget: {elapsed:.1f}s"


def test_acceptance_1_finite_field_k_groups():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        expect_k1 = [] if q == 2 else [q - 1]
        ok = ok and ff_kgroup(q, 1).invariant_factors == expect_k1
        for n in (2, 3):
            ok = ok and ff_kgroup(q, n).invariant_factors == []
    report(1, "K^M_n(F_q) tables", ok, time.monotonic() - start, 60)


def test_acceptance_2_hilbert_table_q2():
    start = time.monotonic()
    ctx = padic_ctx(2, 8)
    reps = (1, -1, 2, -2, 5, -5, 10, -10)
    ok = True
    table = {}
    for a in reps:
        for b in reps:
            x, y = ctx.from_int(a), ctx.from_int(b)
            h = hilbert(ctx, x, y)
            table[(a, b)] = h
            ok = ok and (h == 0) == qf_oracle(ctx, x, y, 8)
    # symmetry and bilinearity on the table
    for a in reps:
        for b in reps:
            ok = ok and table[(a, b)] == table[(b, a)]
    for a in reps:
        for b in reps:
            for c in reps:
                if a * c in reps:
                    ok = ok and table[(a * c, b)] == (
                        table[(a, b)] + table[(c, b)]) % 2
    # Steinberg: (a, 1-a) = 0 whenever both are nonzero
    for a in (-1, 2, 5, -10, 3, -7):
        x = ctx.from_int(a)
        y = ctx.one() - x
        if not y.is_zero():
            ok = ok and hilbert(ctx, x, y) == 0
    ok = ok and set(table.values()) == {0, 1}
    report(2, "Hilbert symbol vs quadratic-form oracle over Q_2", ok,
           time.monotonic() - start, 120)


def test_acceptance_3_mod_m_isomorphism():
    start = time.monotonic()
    ok = True
    for p, m in ((5, 3), (5, 2), (2, 7), (3, 4)):
        ctx = padic_ctx(p, 8)
        kappa = ctx.residue_field
        rng = random.Random(1000 * p + m)
        for _ in range(100):
            b = symbol(kappa, [kappa.random_nonzero(rng),
                               kappa.random_nonzero(rng)])
            ok = ok and reduce_mod_m(
                ctx, lift_mod_m(ctx, b, m), m).serialize() == b.serialize()
            a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
            back = lift_mod_m(ctx, reduce_mod_m(ctx, a, m), m)
            cert = divisibility_witness(ctx, a - back, m)
            ok = ok and cert.ell == m and bool(verify_certificate(cert))
    report(3, "mod-m reduction/lift with divisibility certificates", ok,
           time.monotonic() - start, 300)


def test_acceptance_4_certificates_across_rings():
    start = time.monotonic()
    ok = True
    for ctx in (padic_ctx(5, 8), padic_ctx(2, 8), laurent_ctx(3, 8)):
        ells = [ell for ell in (2, 3, 5, 7, 11) if ell % ctx.p != 0][:3]
        for ell in ells:
            rng = random.Random(100 * ctx.q + ell)
            for degree in (2, 3):
                for _ in range(50):
                    a = symbol(ctx, [ctx.random_unit(rng)
                                     for _ in range(degree)])
                    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
                    cert = divisibility_witness(ctx, a - back, ell)
                    ok = ok and bool(verify_certificate(cert))
    report(4, "certified divisibility over Z_5, Z_2, F_3[[t]]", ok,
           time.monotonic() - start, 300)


def test_acceptance_5_bass_tate_over_function_fields():
    start = time.monotonic()
    ok = True
    for q in (3, 5):
        F = RatFuncCtx(ff_ctx(q))
        t = F.gen()
        rng = random.Random(q)
        for _ in range(100):
            a = symbol(F, [F.random_nonzero(rng, 2), F.random_nonzero(rng, 2)])
            a = a + symbol(F, [F.random_nonzero(rng, 2),
                               F.random_nonzero(rng, 2)]).scale(
                                   rng.randint(-2, 2) or 1)
            ok = ok and reciprocity_check(a)
            v = residue_vector(a)
            ok = ok and v.same_finite(residue_vector(bt_section(v)))
        # norm along the identity (pi = X - t)
        B_id = QuotCtx(F, Poly(F, [-t, F.one()]))
        for _ in range(100):
            x, y = F.random_nonzero(rng, 2), F.random_nonzero(rng, 2)
            xi = symbol(B_id, [B_id.from_base(x), B_id.from_base(y)])
            ok = ok and k_equal(norm(xi), symbol(F, [x, y]))
        # projection formula and tower functoriality, total degree 4
        pi1 = Poly(F, [-t, F.zero(), F.one()])  # X^2 - t
        Fp = QuotCtx(F, pi1)
        pi2 = Poly(Fp, [-(Fp.theta() + Fp.one()), Fp.zero(), Fp.one()])
        for _ in range(10):
            x = symbol(F, [F.random_nonzero(rng, 1)])
            y = symbol(Fp, [Fp.random_nonzero(rng)])
            ok = ok and projection_formula_check(x, y)
            d = rng.randint(1, 3)
            g = Poly(F, [F.random_element(rng, 1) for _ in range(d)]
                     + [F.one()])
            if g.degree >= 1:
                ok = ok and functoriality_check(pi1, pi2, g)
    report(5, "residues, reciprocity, section and norms over F_q(t)", ok,
           time.monotonic() - start, 300)


def test_acceptance_6_gersten_style_exactness():
    start = time.monotonic()
    ok = True
    for q in (2, 3):
        ctx = laurent_ctx(q, 8)
        for n in (1, 2, 3):
            for m in (2, 3, 5):
                if m % q == 0:
                    continue
                rng = random.Random(q * 100 + n * 10 + m)
                results = gersten_check(ctx, n, m, 50, rng)
                ok = ok and all(passed for passed, _, _ in results)
    report(6, "tame/section/kernel exactness mod m over F_q((t))", ok,
           time.monotonic() - start, 300)


def test_acceptance_7_rational_ring_module():
    start = time.monotonic()
    ok = True
    contexts = [padic_ctx(5, 8), padic_ctx(3, 8), laurent_ctx(3, 8),
                laurent_ctx(5, 8)]
    rng = random.Random(77)
    # 10^3 membership / unit / residue checks
    for i in range(1000):
        A = contexts[i % len(contexts)]
        f = random_multipoly(A, 1, rng, ensure_s=(i % 2 == 0))
        if i % 2 == 0:
            ok = ok and s_member(f)
        x = random_ratring_elem(A, 1, rng)
        y = random_ratring_elem(A, 1, rng)
        ok = ok and is_unit(x) == s_member(x.num)
        ok = ok and residue_map(x * y) == residue_map(x) * residue_map(y)
    # 20 sampled (A, pi) base changes
    done = 0
    while done < 20:
        A = contexts[done % len(contexts)]
        d = 2 + done % 2
        coeffs = [A.random_unit(rng) for _ in range(d)] + [A.one()]
        pi = Poly(A, coeffs)
        try:
            ok = ok and base_change_roundtrip(A, pi, rng, samples=2)
        except ResidueReducible:
            continue
        done += 1
    # delta: true on constant-entry classes, false on classes moving with t
    for i in range(100):
        A = contexts[i % len(contexts)]
        s = symbol(A, [RationalRingElem.const(A, 1, A.random_unit(rng))
                       for _ in range(2)])
        ok = ok and delta_kernel_check(s)
    from milnorforge.rational_ring import MultiPoly
    for i in range(100):
        A = contexts[i % len(contexts)]
        kappa = A.residue_field
        # first entry u0 + t, second a constant unit with residue != 1
        u0 = A.random_unit(rng)
        first = RationalRingElem.from_poly(A, MultiPoly(
            A, 1, {(0,): u0, (1,): A.one()}))
        vbar = kappa.gen() if not kappa.gen().is_one() else kappa.from_int(-1)
        second = RationalRingElem.const(A, 1, A.lift_residue(vbar))
        ok = ok and not delta_kernel_check(symbol(A, [first, second]))
    report(7, "A(t) membership, base change and delta kernel", ok,
           time.monotonic() - start, 20)
