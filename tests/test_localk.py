"""Local-field K-theory: tame symbol, mod-m maps, certificates, Hilbert pairing."""

import hashlib
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from milnorforge import localk
from milnorforge.arith.finite_field import ff_ctx_q
from milnorforge.arith.laurent import LaurentSeries
from milnorforge.arith.local import laurent_ctx, padic_ctx, unit_decompose
from milnorforge.arith.padic import PadicNumber
from milnorforge.arith.poly import Poly
from milnorforge.errors import (
    BadInput,
    BadModulus,
    PatternMismatch,
    PiEntryPresent,
    PrecisionTooLow,
    SelfCheckFailed,
    SweepTooLarge,
    ZeroInput,
)
from milnorforge.localk import (
    divisibility_witness,
    generator_form,
    gersten_check,
    hilbert,
    lift_mod_m,
    parse_certificate,
    qf_oracle,
    reduce_mod_m,
    serialize_certificate,
    tame,
    verify_certificate,
)
from milnorforge.ratfunc import Place, RatFuncCtx, tame_at
from milnorforge.symbols import MilnorClass, ff_kgroup, symbol


CONTEXTS = [padic_ctx(5, 8), padic_ctx(2, 8), laurent_ctx(3, 8)]


# --- generator form and tame symbol ---------------------------------------

def test_generator_form_frozen_z5():
    ctx = padic_ctx(5, 8)
    pi = ctx.uniformizer()
    a = symbol(ctx, [ctx.from_int(4) * pi * pi, ctx.from_int(3)])
    out = generator_form(ctx, a)
    assert out.serialize() == ("deg:2 2*{padic(5,8):1*p^1,padic(5,8):3*p^0}"
                               " + {padic(5,8):4*p^0,padic(5,8):3*p^0}")


def test_tame_of_pi_symbol_is_residue_class():
    ctx = laurent_ctx(3, 8)
    a = symbol(ctx, [ctx.uniformizer(), ctx.from_int(2)])
    assert tame(ctx, a).serialize() == "deg:1 {ff(3,1):g^1}"


def test_tame_kills_unit_symbols():
    rng = random.Random(17)
    for ctx in CONTEXTS:
        for _ in range(10):
            a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
            assert tame(ctx, a).is_zero()


def test_tame_is_additive_in_valuation():
    ctx = padic_ctx(7, 8)
    pi = ctx.uniformizer()
    u = ctx.from_int(3)
    one_pi = tame(ctx, symbol(ctx, [pi, u]))
    two_pi = tame(ctx, symbol(ctx, [pi * pi, u]))
    assert (two_pi - one_pi.scale(2)).is_zero()


@pytest.mark.parametrize("ctx", [padic_ctx(5, 8), laurent_ctx(9, 8)])
def test_shared_uniformizer_changes_no_tame_symbol(ctx):
    # uniformizer() hands out one element per context, which tame_rewrite
    # skips by identity; an equal fresh pi takes the valuation path
    shared = ctx.uniformizer()
    assert ctx.uniformizer() is shared
    fresh = ctx.parse(shared.serialize())
    assert fresh is not shared and fresh == shared
    rng = random.Random(23)
    shapes = (["pi", 0], [0, "pi"], ["pi", "pi"], ["pi", 0, 1],
              [0, 1, "pi"], ["pi", 0, "pi"], [0, "pi", "pi"])
    for _ in range(4):
        units = [ctx.random_unit(rng) for _ in range(2)]
        for shape in shapes:
            texts = set()
            for pi in (shared, fresh):
                entries = [pi if e == "pi" else units[e] for e in shape]
                texts.add(tame(ctx, symbol(ctx, entries)).serialize())
            assert len(texts) == 1, (shape, texts)


# --- reduction / lifting mod m --------------------------------------------

PAIRS = [(padic_ctx(5, 8), 3), (padic_ctx(5, 8), 2),
         (padic_ctx(2, 8), 7), (padic_ctx(3, 8), 4)]


@pytest.mark.parametrize("ctx,m", PAIRS)
def test_reduce_after_lift_is_identity(ctx, m):
    rng = random.Random(ctx.p * 100 + m)
    kappa = ctx.residue_field
    for _ in range(20):
        b = symbol(kappa, [kappa.random_nonzero(rng), kappa.random_nonzero(rng)])
        assert reduce_mod_m(ctx, lift_mod_m(ctx, b, m), m).serialize() == b.serialize()


@pytest.mark.parametrize("ctx,m", PAIRS)
def test_lift_after_reduce_differs_by_certified_multiple(ctx, m):
    rng = random.Random(ctx.p * 7 + m)
    for _ in range(20):
        a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
        back = lift_mod_m(ctx, reduce_mod_m(ctx, a, m), m)
        cert = divisibility_witness(ctx, a - back, m)
        res = verify_certificate(cert)
        assert res.ok, res.failure


def test_reduce_rejects_modulus_divisible_by_p():
    ctx = padic_ctx(5, 8)
    a = symbol(ctx, [ctx.from_int(2), ctx.from_int(3)])
    with pytest.raises(BadModulus):
        reduce_mod_m(ctx, a, 10)


@pytest.mark.parametrize("m", [-3, 0, 1, 5, 10])
def test_every_modulus_entry_point_raises_bad_modulus(m):
    # reduce, lift, gersten-check's m and the certificates' ell share one
    # check: m >= 2 and coprime to p
    ctx = laurent_ctx(5, 8)
    a = symbol(ctx, [ctx.from_int(2), ctx.from_int(3)])
    for call in (lambda: reduce_mod_m(ctx, a, m),
                 lambda: lift_mod_m(ctx, reduce_mod_m(ctx, a, 2), m),
                 lambda: gersten_check(ctx, 2, m, 1, random.Random(0)),
                 lambda: divisibility_witness(ctx, a, m)):
        with pytest.raises(BadModulus, match="coprime to p = 5"):
            call()


# --- divisibility certificates --------------------------------------------

def test_witness_requires_unit_entries():
    ctx = padic_ctx(5, 8)
    a = symbol(ctx, [ctx.uniformizer(), ctx.from_int(2)])
    with pytest.raises(PiEntryPresent):
        divisibility_witness(ctx, a, 3)


def test_witness_rejects_degree_below_two():
    # a typed error before any work, also under python -O
    ctx = padic_ctx(5, 8)
    for a in (symbol(ctx, [ctx.from_int(2)]), symbol(ctx, ())):
        with pytest.raises(BadInput):
            divisibility_witness(ctx, a, 3)


@pytest.mark.parametrize("n", [0, 4])
def test_gersten_check_rejects_degrees_outside_one_to_three(n):
    # the kernel leg has cases for n = 1, 2, 3 only; no other degree may
    # fall through to one of them
    with pytest.raises(BadInput):
        localk.gersten_check(laurent_ctx(3, 8), n, 2, 2, random.Random(0))


@pytest.mark.parametrize("ctx", CONTEXTS)
@pytest.mark.parametrize("ell", [3, 7])
def test_witness_verifies_on_random_classes(ctx, ell):
    if ell % ctx.p == 0:
        ell += 2  # keep the divisor coprime to the residue characteristic
    rng = random.Random(ctx.q * 10 + ell)
    for degree in (2, 3):
        for _ in range(10):
            a = symbol(ctx, [ctx.random_unit(rng) for _ in range(degree)])
            back = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
            cert = divisibility_witness(ctx, a - back, ell)
            assert verify_certificate(cert).ok


def test_witness_pays_the_order_relator():
    # over F_4 the class {g, g} is 1 * (order 3) - 1 * (Steinberg row 2)
    # in the relators of K_2(F_4); the certificate text is pinned
    assert ff_kgroup(4, 2).presentation.express_in_relators([1]) == [1, -1]
    ctx = laurent_ctx(4, 8)
    g = ctx.lift_residue(ctx.residue_field.gen())
    cert = divisibility_witness(ctx, symbol(ctx, [g, g]), 3)
    assert verify_certificate(cert).ok
    text = serialize_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4def06d0825c63064536ae4422522faef67d6ac47b62b5679c70413e47fa5c68")


PIN_RINGS = ([(padic_ctx, p) for p in (2, 3, 5, 7)]
             + [(laurent_ctx, q) for q in (3, 4, 8, 9)])


def test_certificate_texts_are_pinned():
    # a seeded grid: 8 rings, precisions 1, 2, 8 and 16, degrees 2 and 3,
    # the first two of ell = 2, 3, 5, 7 coprime to p; digest taken once
    # powers followed binary chains, the rows were the first pairs' i*j
    # and the Teichmuller residual merged before it was expanded
    h, head = hashlib.sha256(), hashlib.sha256()
    for make, q in PIN_RINGS:
        for prec in (1, 2, 8, 16):
            ctx = make(q, prec)
            ells = [ell for ell in (2, 3, 5, 7) if ell % ctx.p][:2]
            for degree in (2, 3):
                for ell in ells:
                    rng = random.Random(f"{ctx!r} {degree} {ell}")
                    a = (symbol(ctx, [ctx.random_unit(rng)
                                      for _ in range(degree)])
                         + symbol(ctx, [ctx.random_unit(rng)
                                        for _ in range(degree)]).scale(2))
                    cert = divisibility_witness(ctx, a, ell)
                    text = serialize_certificate(cert)
                    assert verify_certificate(parse_certificate(text)).ok
                    h.update(text.encode())
                    head.update(_non_step_lines(text).encode())
    # the ctx, ell, degree, alpha and beta lines, pinned apart from the
    # steps so that a change of the steps alone shows as such
    assert head.hexdigest() == (
        "bfb5297f5bcb38c47158bedcc6df5514c559c50b6227f6efcd236f42a2a46688")
    assert h.hexdigest() == (
        "4bb9f770da288da307e6413fbee8c130a684e88790408bd26ba3c2d75b307a6f")


def _non_step_lines(text):
    return "".join(ln + "\n" for ln in text.splitlines()
                   if not ln.startswith("step "))


# certificates written by earlier builders: (file, steps, whether a fresh
# witness of the same alpha keeps every non-step line)
_OLD_CERTS = [
    # expanded g^e in e - 1 steps and padded the degree-3 Steinberg rows,
    # so its beta is not a fresh one's
    ("divcert_f9_degree3_v1.cert", 46, False),
    # a - lift(reduce(a)) over F_9[[t]] at precision 8: the Teichmuller
    # parts of a and of lift(reduce(a)) were expanded before they cancelled
    ("divcert_f9_degree3_lift_v1.cert", 28, True),
]


def test_certificate_with_linear_chains_still_replays():
    # the verifier's vocabulary is unchanged, so every old text replays
    for name, n_steps, same_head in _OLD_CERTS:
        path = os.path.join(os.path.dirname(__file__), "data", name)
        with open(path) as f:
            text = f.read()
        cert = parse_certificate(text)
        assert len(cert.steps) == n_steps and verify_certificate(cert).ok
        assert serialize_certificate(cert) == text
        fresh = divisibility_witness(cert.ctx, cert.alpha, cert.ell)
        assert verify_certificate(fresh).ok and len(fresh.steps) < n_steps
        if same_head:
            assert _non_step_lines(serialize_certificate(fresh)) == \
                _non_step_lines(text)


@pytest.mark.parametrize("prec", [1, 2, 8])
@pytest.mark.parametrize("make,q", [(padic_ctx, p) for p in (2, 3, 5, 7)]
                         + [(laurent_ctx, q) for q in (3, 4, 9)])
def test_lift_residual_costs_two_steps_per_non_teichmuller_entry(make, q,
                                                                 prec):
    # a and lift(reduce(a)) share their Teichmuller parts, which cancel
    # before any expansion: each entry of a that is not its own
    # Teichmuller lift costs one BILINEAR_EXPAND and one HENSEL_ROOT, and
    # no step is emitted twice
    ctx = make(q, prec)
    for degree in (2, 3):
        for ell in [ell for ell in (2, 3, 5, 7) if ell % ctx.p][:2]:
            rng = random.Random(f"{ctx!r} {degree} {ell} lift")
            for _ in range(5):
                a = symbol(ctx, [ctx.random_unit(rng) for _ in range(degree)])
                moved = sum(
                    x != localk.teichmuller(ctx, ctx.residue(x))
                    for x in a.terms[0].entries)
                back = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
                cert = divisibility_witness(ctx, a - back, ell)
                assert verify_certificate(cert).ok
                kinds = [s.kind for s in cert.steps]
                assert len(kinds) == 2 * moved
                assert kinds.count(localk.BILINEAR_EXPAND) == moved
                assert kinds.count(localk.HENSEL_ROOT) == moved
                keys = {(s.kind, _ser(s.entries), s.pos, _ser(s.aux))
                        for s in cert.steps}
                assert len(keys) == len(cert.steps)


def _ser(entries):
    return tuple(e.serialize() for e in entries)


@pytest.mark.parametrize("ctx", [padic_ctx(7, 4), laurent_ctx(9, 4)])
def test_expand_power_follows_the_binary_chain(ctx):
    # mult*[base^e, y] becomes e*mult*[base, y] in at most 2*floor(log2 e)
    # steps: the replay of the recorded steps against alpha = 5*[g^e, y]
    # leaves the residual 5e*[g, y] (y is a unit: 3 is zero in F_9[[t]],
    # and a symbol has no zero entry)
    g = localk.teichmuller(ctx, ctx.residue_field.gen())
    y = ctx.from_int(2)
    for e in range(1, 301):
        steps = []
        localk._expand_power(steps, 5, (g ** e, y), 0, g, e)
        assert len(steps) <= 2 * (e.bit_length() - 1), e
        alpha = symbol(ctx, [g ** e, y]).scale(5)
        why, residual = localk._replay(localk.DivisibilityCertificate(
            ctx, 2, alpha, MilnorClass.zero(ctx, 2), steps))
        assert why == "", e
        assert [(t.coeff, tuple(x.key() for x in t.entries))
                for t in residual.terms] == [(5 * e, (g.key(), y.key()))], e


@settings(max_examples=100)
@given(st.data())
def test_formal_sum_items_follow_serialized_order(data):
    # MilnorClass, the certificates' formal sum, merges terms by their
    # serialized entries, lists them in that order, and is zero exactly
    # when everything cancels
    ctx = data.draw(st.sampled_from([padic_ctx(3, 2), laurent_ctx(4, 2)]))
    # nonzero entries only: 2 is zero in F_4[[t]], so the lift of the
    # residue generator (2 in Z_3) stands in for it
    u = ctx.lift_residue(ctx.residue_field.gen())
    pool = [ctx.one(), ctx.minus_one(), ctx.uniformizer(), u, u.truncate(1),
            ctx.one().truncate(1), ctx.uniformizer() + ctx.one()]
    terms, ref = [], {}
    for _ in range(data.draw(st.integers(0, 30))):
        c = data.draw(st.integers(-2, 2))
        ent = tuple(data.draw(st.sampled_from(pool)) for _ in range(2))
        terms.append((c, ent))
        k = tuple(e.serialize() for e in ent)
        ref[k] = ref.get(k, 0) + c
    acc = MilnorClass(ctx, 2, terms)
    want = sorted((k, c) for k, c in ref.items() if c)
    got = [(tuple(e.serialize() for e in t.entries), t.coeff)
           for t in acc.terms]
    assert got == want
    assert acc.is_zero() == (not want)


# Z_5, and residue fields past the tables (2^16 < q <= FIELD_BOUND) in
# both characteristics; precision 8 keeps each case well under 1 s
@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("ctx", [padic_ctx(5, 8), laurent_ctx(65537, 8),
                                 laurent_ctx(2 ** 20, 8)],
                         ids=["padic5", "laurent65537", "laurent2^20"])
def test_certificate_serialization_round_trip(ctx, degree):
    rng = random.Random(23)
    a = symbol(ctx, [ctx.random_unit(rng) for _ in range(degree)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, 3), 3)
    cert = divisibility_witness(ctx, a - back, 3)
    text = serialize_certificate(cert)
    assert text.startswith("divcert v1")
    cert2 = parse_certificate(text)
    assert verify_certificate(cert2).ok
    assert serialize_certificate(cert2) == text


def _cert_text(seed=23):
    ctx = padic_ctx(5, 8)
    a = symbol(ctx, [ctx.random_unit(random.Random(seed)) for _ in range(2)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, 3), 3)
    return serialize_certificate(divisibility_witness(ctx, a - back, 3))


def _edit_line(text, kind, edit):
    """Apply edit to the first line starting with `kind `."""
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
    lines[i] = edit(lines[i])
    return "\n".join(lines) + "\n", lines[i]


@pytest.mark.parametrize("kind,edit", [
    ("ell", lambda ln: "ell 3x"),
    ("degree", lambda ln: "degree two"),
    ("alpha", lambda ln: "alpha 1.5 ;" + ln.split(";", 1)[1]),
    ("step", lambda ln: ln.replace(" 1 0 ;", " 1 0a ;", 1)),
    ("step", lambda ln: ln.replace(" 1 0 ;", " one 0 ;", 1)),
    ("step", lambda ln: ln.replace(" 1 0 ;", " 1 5 ;", 1)),
    ("step", lambda ln: ln.replace("BILINEAR_EXPAND", "SWAP", 1)),
    ("ctx", lambda ln: "ctx padic(5,8"),
    # certificate numbers are ASCII -?[0-9]+, which int() alone is not
    pytest.param("ell", lambda ln: "ell +3", id="ell-plus_sign"),
    pytest.param("degree", lambda ln: "degree 0_2", id="degree-underscore"),
    pytest.param("ell", lambda ln: "ell \u0663", id="ell-arabic_indic_digit"),
    pytest.param("ctx", lambda ln: "ctx padic(\u0665,8)",
                 id="ctx-arabic_indic_digit"),
    # divisibility_witness refuses degree < 2, and so does the text form
    pytest.param("degree", lambda ln: "degree -2", id="degree-negative"),
    pytest.param("degree", lambda ln: "degree 0", id="degree-zero"),
    pytest.param("degree", lambda ln: "degree 1", id="degree-one"),
])
def test_malformed_certificate_line_is_named(kind, edit):
    text, line = _edit_line(_cert_text(), kind, edit)
    with pytest.raises(PatternMismatch) as info:
        parse_certificate(text)
    assert repr(line) in str(info.value)


def test_certificate_without_ctx_line_is_rejected():
    text = "".join(ln for ln in _cert_text().splitlines(keepends=True)
                   if not ln.startswith("ctx "))
    with pytest.raises(PatternMismatch, match="ctx"):
        parse_certificate(text)
    with pytest.raises(PatternMismatch, match="ctx"):
        parse_certificate("divcert v1\nell 3\ndegree 2\n")


def test_tampered_certificate_is_rejected():
    ctx = padic_ctx(5, 8)
    rng = random.Random(29)
    a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, 3), 3)
    cert = divisibility_witness(ctx, a - back, 3)
    assert verify_certificate(cert).ok
    # claim a different quotient: the replay must notice
    cert.beta = cert.beta + symbol(ctx, [ctx.from_int(2), ctx.from_int(3)])
    assert not verify_certificate(cert).ok


def test_tampered_step_multiplicity_is_rejected():
    ctx = padic_ctx(5, 8)
    rng = random.Random(31)
    a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, 3), 3)
    cert = divisibility_witness(ctx, a - back, 3)
    tampered = False
    for step in cert.steps:
        if step.mult != 0:
            step.mult += 1
            tampered = True
            break
    if tampered:
        assert not verify_certificate(cert).ok


def _zero_entry_steps(ctx):
    """One step of each kind whose side condition holds but for a zero
    entry (or aux entry), keyed by kind."""
    zero, two, one = ctx.zero(), ctx.from_int(2), ctx.one()
    pi = ctx.uniformizer()
    return {
        # y*z = 0 = e[0]; the relator nets to -{pi, 2}
        localk.BILINEAR_EXPAND: localk.CertStep(
            localk.BILINEAR_EXPAND, -1, (zero, two), 0, (zero, pi)),
        localk.SWAP: localk.CertStep(localk.SWAP, 1, (zero, two), (0, 1)),
        localk.STEINBERG_ZERO: localk.CertStep(
            localk.STEINBERG_ZERO, 1, (zero, one), (0, 1)),
        localk.MINUS_SELF: localk.CertStep(
            localk.MINUS_SELF, 1, (zero, zero), 0),
        localk.SELF_TO_MINUS_ONE: localk.CertStep(
            localk.SELF_TO_MINUS_ONE, 1, (zero, zero), 0),
        localk.HENSEL_ROOT: localk.CertStep(
            localk.HENSEL_ROOT, 1, (zero, two), 0, (zero,)),
        # a zero aux entry alone: 0*2 = 0 misses the entry 2 too, but the
        # zero is named first
        "aux": localk.CertStep(
            localk.BILINEAR_EXPAND, 1, (two, two), 0, (zero, two)),
    }


@pytest.mark.parametrize("kind", sorted(_zero_entry_steps(padic_ctx(5, 8))))
@pytest.mark.parametrize("ctx", [padic_ctx(5, 8), laurent_ctx(3, 4)])
def test_step_with_a_zero_entry_is_refused(ctx, kind):
    step = _zero_entry_steps(ctx)[kind]
    alpha = symbol(ctx, [ctx.uniformizer(), ctx.from_int(2)])
    cert = localk.DivisibilityCertificate(
        ctx, 2, alpha, MilnorClass.zero(ctx, 2), [step])
    res = verify_certificate(cert)
    assert not res.ok
    assert res.failure.startswith(f"step 0 ({step.kind}): ")
    assert res.failure.endswith(" is zero")


def _one_step_of_each_kind(ctx):
    """Per step kind, (a step whose side condition holds, the same step
    with its side condition broken); every entry is a nonzero unit."""
    x = ctx.lift_residue(ctx.residue_field.gen())  # x^2 != 1, 2x != 1
    one = ctx.one()
    y = one + ctx.uniformizer()
    K = localk
    return {
        K.BILINEAR_EXPAND: (
            K.CertStep(K.BILINEAR_EXPAND, -2, (x * y, y), 0, (x, y)),
            K.CertStep(K.BILINEAR_EXPAND, -2, (x * y, y), 0, (x, x))),
        K.SWAP: (K.CertStep(K.SWAP, -2, (x, y), (0, 1)),
                 K.CertStep(K.SWAP, -2, (x, y), (0, 0))),
        K.STEINBERG_ZERO: (
            K.CertStep(K.STEINBERG_ZERO, -2, (x, one - x), (1, 0)),
            K.CertStep(K.STEINBERG_ZERO, -2, (x, x), (1, 0))),
        K.MINUS_SELF: (K.CertStep(K.MINUS_SELF, -2, (x, -x), 0),
                       K.CertStep(K.MINUS_SELF, -2, (x, x), 0)),
        K.SELF_TO_MINUS_ONE: (
            K.CertStep(K.SELF_TO_MINUS_ONE, -2, (x, x), 0),
            K.CertStep(K.SELF_TO_MINUS_ONE, -2, (x, -x), 0)),
        K.HENSEL_ROOT: (
            K.CertStep(K.HENSEL_ROOT, -2, (y, x * x), 1, (x,)),
            K.CertStep(K.HENSEL_ROOT, -2, (y, x * x), 1, (x * x,))),
    }


def test_every_step_kind_has_a_case():
    assert sorted(_one_step_of_each_kind(padic_ctx(5, 8))) == \
        sorted(localk._STEP_KINDS)


@pytest.mark.parametrize("kind", sorted(localk._STEP_KINDS))
@pytest.mark.parametrize("ctx", [padic_ctx(5, 8), laurent_ctx(9, 4)])
def test_every_step_kind_replays_from_its_text(ctx, kind):
    # alpha = mult * relator: the one step cancels it, through the text
    # form; with the side condition broken the replay names the kind
    good, broken = _one_step_of_each_kind(ctx)[kind]
    alpha = MilnorClass(ctx, 2, [(good.mult * c, e)
                                 for c, e in good.relator(ctx, 2)])
    for step, ok in ((good, True), (broken, False)):
        cert = localk.DivisibilityCertificate(
            ctx, 2, alpha, MilnorClass.zero(ctx, 2), [step])
        text = serialize_certificate(cert)
        back = parse_certificate(text)
        assert serialize_certificate(back) == text
        res = verify_certificate(back)
        assert res.ok == ok, res
        if not ok:
            assert res.failure.startswith(f"step 0 ({kind}): ")
            assert not res.failure.endswith(" is zero")


def test_witness_self_check_raises_under_python_O(monkeypatch):
    # the replay of a fresh certificate is a raise, not an assert
    ctx = padic_ctx(5, 8)
    rng = random.Random(37)
    a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, 3), 3)
    monkeypatch.setattr(localk.CertStep, "violation",
                        lambda step, ell: "forced")
    with pytest.raises(SelfCheckFailed,
                       match=r"^freshly built certificate failed: step 0 "):
        divisibility_witness(ctx, a - back, 3)


@pytest.mark.parametrize("ctx", CONTEXTS)
def test_witness_books_each_relator_once(ctx, monkeypatch):
    # the builder records steps only; the one replay books each relator
    calls = []
    real = localk.CertStep.relator

    def counted(step, *args):
        calls.append(step)
        return real(step, *args)

    monkeypatch.setattr(localk.CertStep, "relator", counted)
    ell = 5 if ctx.p == 3 else 3
    rng = random.Random(41)
    a = symbol(ctx, [ctx.random_unit(rng) for _ in range(3)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
    cert = divisibility_witness(ctx, a - back, ell)
    assert cert.steps and len(calls) == len(cert.steps)


def _negate_first_y_then_replay(real_replay, tampered):
    """A replay that first replaces y by -y in the first BILINEAR_EXPAND
    step the builder recorded, so only the replay's side condition can
    notice."""
    def replay(cert):
        step = next(s for s in cert.steps if s.kind == localk.BILINEAR_EXPAND)
        y, z = step.aux
        step.aux = (-y, z)
        tampered.append(step)
        return real_replay(cert)
    return replay


@pytest.mark.parametrize("ctx", CONTEXTS)
def test_wrong_builder_step_fails_in_the_replay(ctx, monkeypatch):
    # the builder checks no side condition; the final replay checks each
    ell = 5 if ctx.p == 3 else 3
    rng = random.Random(37)
    a = symbol(ctx, [ctx.random_unit(rng), ctx.random_unit(rng)])
    back = lift_mod_m(ctx, reduce_mod_m(ctx, a, ell), ell)
    tampered = []
    monkeypatch.setattr(localk, "_replay",
                        _negate_first_y_then_replay(localk._replay, tampered))
    with pytest.raises(SelfCheckFailed,
                       match=r"^freshly built certificate failed: step \d+ "
                             r"\(BILINEAR_EXPAND\): y\*z does not match the "
                             r"expanded entry$"):
        divisibility_witness(ctx, a - back, ell)
    assert len(tampered) == 1


_SELF_CHECKS = """
from milnorforge import ratfunc
from milnorforge.arith.finite_field import ff_ctx
from milnorforge.arith.laurent import LaurentSeries
from milnorforge.arith.local import padic_ctx
from milnorforge.arith.poly import Poly
from milnorforge.errors import BadInput, SelfCheckFailed
from milnorforge.localk import _discharge_steinberg_pair, _kill_one_entry

if __debug__:
    raise SystemExit("not running under python -O")


def expect(label, error, check):
    try:
        check()
    except error:
        return
    raise SystemExit(f"check missed: {label}")


k = ff_ctx(3)
expect("Laurent leading coefficient", BadInput,
       lambda: LaurentSeries(k, 4, 0, [k.zero(), k.one()]))
# X^2 - 1 = (X - 1)(X + 1) over F_3, so X - 1 has no inverse
Q = ratfunc.QuotCtx(k, Poly.from_ints(k, [-1, 0, 1]))
expect("quotient inverse", BadInput,
       lambda: Q.from_poly(Poly.from_ints(k, [-1, 1])).inverse())
t = ratfunc.RatFuncCtx(k).gen()
real = ratfunc.poly_factor
ratfunc.poly_factor = lambda f: [(irr, m + 2) for irr, m in real(f)]
expect("square root re-multiply", SelfCheckFailed,
       lambda: ratfunc.ratfunc_sqrt(t * t))
ratfunc.poly_factor = real

ctx = padic_ctx(5, 8)
two, three = ctx.from_int(2), ctx.from_int(3)
steps = []
expect("builder 1-entry", SelfCheckFailed,
       lambda: _kill_one_entry(steps, ctx, 1, (two, three), 0))
# 2 + 2 = 4 is no principal unit
expect("builder Steinberg pair", SelfCheckFailed,
       lambda: _discharge_steinberg_pair(steps, ctx, 3, 1, (two, two)))
print("ok")
"""


def test_former_asserts_raise_under_python_O(run_python_O):
    out = run_python_O(_SELF_CHECKS)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip() == "ok"


# --- Hilbert symbol over Q_2 ----------------------------------------------

REPS = (1, -1, 2, -2, 5, -5, 10, -10)

# rows indexed like REPS; entry = hilbert(a, b) in {0, 1}
FROZEN_Q2_TABLE = {
    1: [0, 0, 0, 0, 0, 0, 0, 0],
    -1: [0, 1, 0, 1, 0, 1, 0, 1],
    2: [0, 0, 0, 0, 1, 1, 1, 1],
    -2: [0, 1, 0, 1, 1, 0, 1, 0],
    5: [0, 0, 1, 1, 0, 0, 1, 1],
    -5: [0, 1, 1, 0, 0, 1, 1, 0],
    10: [0, 0, 1, 1, 1, 1, 0, 0],
    -10: [0, 1, 1, 0, 1, 0, 0, 1],
}


def test_hilbert_q2_frozen_table():
    ctx = padic_ctx(2, 8)
    for a in REPS:
        row = [hilbert(ctx, ctx.from_int(a), ctx.from_int(b)) for b in REPS]
        assert row == FROZEN_Q2_TABLE[a], f"row of {a}"


def test_hilbert_q2_matches_quadratic_form_oracle():
    ctx = padic_ctx(2, 8)
    for a in REPS:
        for b in REPS:
            h = hilbert(ctx, ctx.from_int(a), ctx.from_int(b))
            solvable = qf_oracle(ctx, ctx.from_int(a), ctx.from_int(b), 8)
            assert (h == 0) == solvable, (a, b)


def test_hilbert_q2_symmetric_and_bilinear():
    ctx = padic_ctx(2, 8)
    for a in REPS:
        for b in REPS:
            ha = hilbert(ctx, ctx.from_int(a), ctx.from_int(b))
            hb = hilbert(ctx, ctx.from_int(b), ctx.from_int(a))
            assert ha == hb
            for c in (5, -2):
                lhs = hilbert(ctx, ctx.from_int(a * c), ctx.from_int(b))
                rhs = (ha + hilbert(ctx, ctx.from_int(c), ctx.from_int(b))) % 2
                assert lhs == rhs


def test_hilbert_q2_steinberg_vanishing():
    ctx = padic_ctx(2, 8)
    for a in (-1, 2, 5, -10, 3):
        x = ctx.from_int(a)
        y = ctx.one() - x
        if y.is_zero():
            continue
        assert hilbert(ctx, x, y) == 0


def test_hilbert_odd_p_frozen_values():
    ctx = padic_ctx(5, 8)
    kappa = ctx.residue_field
    assert hilbert(ctx, ctx.from_int(5), ctx.from_int(2)) == kappa.gen() ** 3
    assert hilbert(ctx, ctx.from_int(5), ctx.from_int(4)) == kappa.gen() ** 2
    # two units pair trivially
    assert hilbert(ctx, ctx.from_int(2), ctx.from_int(3)).is_one()


def _closed_form_hilbert(ctx, a, b):
    """The odd-p tame pairing (-1)^{v(a)v(b)} a^{v(b)} b^{-v(a)} bar."""
    va, ua = unit_decompose(a)
    vb, ub = unit_decompose(b)
    sign = ctx.residue_field.minus_one() ** (va * vb)
    return sign * ctx.residue(ua) ** vb * ctx.residue(ub) ** (-va)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_hilbert_odd_p_matches_the_closed_formula(p):
    # hilbert reads the value off tame; the closed formula is the reference
    ctx = padic_ctx(p, 6)
    pi = ctx.uniformizer()
    rng = random.Random(p)

    def draw():
        return ctx.random_unit(rng) * pi ** rng.randint(-3, 3)

    for _ in range(100):
        a = draw()
        for b in (draw(), a, -a):
            assert hilbert(ctx, a, b) == _closed_form_hilbert(ctx, a, b)


def _prime_factors(n: int) -> list:
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _hilbert_sum_over_q(a: int, b: int) -> int:
    """The quadratic Hilbert symbols (a, b)_v, written additively, summed
    over the real place and every p | 2ab (the places where (a, b)_v can
    be nontrivial), mod 2."""
    total = int(a < 0 and b < 0)
    for p in _prime_factors(2 * a * b):
        ctx = padic_ctx(p, 8)
        h = hilbert(ctx, ctx.from_int(a), ctx.from_int(b))
        if p > 2:
            # Euler's criterion: is the tame value a square mod p?
            h = 0 if (h ** ((p - 1) // 2)).is_one() else 1
        total += h
    return total % 2


@settings(max_examples=200, deadline=None)
@given(st.integers(-1999, 1999).filter(bool),
       st.integers(-1999, 1999).filter(bool))
def test_hilbert_reciprocity_over_q(a, b):
    # Hilbert reciprocity (Serre, A Course in Arithmetic, ch. III): the
    # closed p = 2 formula is checked against the tame symbols at odd p
    assert _hilbert_sum_over_q(a, b) == 0


@pytest.mark.parametrize("a,b", [
    (1048573, -1), (-1048573, -1048573), (3 * 1048573, -5 * 2 ** 40),
    (2 ** 30, 3), (-(2 ** 25) * 7, -(2 ** 17) * 1048573),
    (1048573 * 1048571, 2 ** 12 * 1048573),
])
def test_hilbert_reciprocity_at_a_large_prime_and_high_2_adic_valuation(a, b):
    # 1048571 and 1048573 are the primes just below FIELD_BOUND = 2^20;
    # the 2-adic valuations reach 40
    assert _hilbert_sum_over_q(a, b) == 0


def _laurent_expansion(ctx, f):
    """f in F_q(t) as a series in F_q((t)) at t = 0, at ctx's precision."""
    def series(g):
        return LaurentSeries.make(ctx.residue_field, ctx.prec, 0, g.coeffs)
    return series(f.num) / series(f.den)


def _as_unit(k, c, read):
    """The unit of F_q that a degree-1 class over a residue field of
    degree 1 names: the product of its entries, read in k, to their
    coefficients."""
    out = k.one()
    for t in c.terms:
        out = out * read(t.entries[0]) ** t.coeff
    return out


@pytest.mark.parametrize("q", [3, 4, 5])
def test_tame_agrees_with_tame_at_the_place_t(q):
    # local-global cross-check: localk.tame runs on Laurent series over
    # F_q((t)), ratfunc.tame_at on F_q[t] at the place t; they share only
    # symbols.tame_rewrite.  A power t^-2..t^2 times a random fraction
    # gives each entry its own valuation at t.
    F = RatFuncCtx(ff_ctx_q(q), "t")
    k, t = F.base, F.gen()
    ctx = laurent_ctx(q, 8)
    place = Place(F, Poly.x(k))
    rng = random.Random(5000 + q)
    for _ in range(40):
        a, b = (F.random_nonzero(rng, 3) * t ** rng.randrange(-2, 3)
                for _ in range(2))
        local = tame(ctx, symbol(ctx, [_laurent_expansion(ctx, a),
                                       _laurent_expansion(ctx, b)]))
        at_t = tame_at(place, symbol(F, [a, b]))
        assert _as_unit(k, local, lambda e: e) == \
            _as_unit(k, at_t, lambda e: e.rep.coeff(0)), (a, b)


def test_hilbert_rejects_zero_input():
    ctx = padic_ctx(2, 8)
    with pytest.raises(ZeroInput):
        hilbert(ctx, ctx.zero(), ctx.one())


# --- quadratic-form oracle ------------------------------------------------

def _unit(rng, p, prec):
    u = rng.randrange(1, p ** prec)
    return u if u % p else u + 1


def brute_force_solvable(p, B, va, ua, vb, ub):
    """Reference sweep over every primitive (x, y) mod p^B, no unit scaling.

    Same certificate rule as qf_oracle: z = 0 when -b/a is a square,
    else some w = a x^2 + b y^2 that is nonzero mod p^B, of even valuation
    at most B - head, with a square unit part.
    """
    head = 3 if p == 2 else 1
    mod = p ** B

    def square_unit(u):
        return u % 8 == 1 if p == 2 else pow(u, (p - 1) // 2, p) == 1

    if (vb - va) % 2 == 0 and square_unit(-ub * pow(ua, -1, mod)):
        return True
    good = []
    for w in range(mod):
        v = 0
        while w and w % p == 0:
            w //= p
            v += 1
        good.append(w != 0 and v % 2 == 0 and v <= B - head
                    and square_unit(w))
    A = ua * p ** (va % 2) % mod
    Bc = ub * p ** (vb % 2) % mod
    sq = [x * x % mod for x in range(mod)]
    units = [y for y in range(mod) if y % p]
    for x in range(mod):
        ys = range(mod) if x % p else units
        if any(good[(A * sq[x] + Bc * sq[y]) % mod] for y in ys):
            return True
    return False


@pytest.mark.parametrize("p, B", [(2, 5), (2, 6), (2, 8), (2, 10), (3, 3),
                                  (3, 4), (3, 6), (5, 3), (5, 4), (7, 3)])
def test_qf_oracle_matches_brute_force_sweep(p, B):
    prec = B + 2
    ctx = padic_ctx(p, prec)
    rng = random.Random(100 * p + B)
    seen = set()
    for _ in range(16):
        va, vb = rng.randrange(-3, 4), rng.randrange(-3, 4)
        ua, ub = _unit(rng, p, prec), _unit(rng, p, prec)
        a, b = PadicNumber(p, prec, va, ua), PadicNumber(p, prec, vb, ub)
        want = brute_force_solvable(p, B, va, ua, vb, ub)
        assert qf_oracle(ctx, a, b, B) == want, (va, ua, vb, ub)
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("p, B", [(2, 5), (2, 8), (3, 3), (5, 4), (7, 3)])
def test_qf_oracle_matches_hilbert_at_high_valuations(p, B):
    # Serre's formula: solvable exactly when the Hilbert symbol is trivial;
    # for odd p that is when the tame residue is a square in F_p
    ctx = padic_ctx(p, 16)
    rng = random.Random(7 * p + B)
    for _ in range(150):
        a = PadicNumber(p, 16, rng.randrange(-2, 8), _unit(rng, p, 16))
        b = PadicNumber(p, 16, rng.randrange(-2, 8), _unit(rng, p, 16))
        h = hilbert(ctx, a, b)
        trivial = h == 0 if p == 2 else (h ** ((p - 1) // 2)).is_one()
        assert qf_oracle(ctx, a, b, B) == trivial, (a, b)


def test_qf_oracle_solves_high_valuation_coefficients():
    # z^2 = 128 x^2 + 128 y^2 has the solution (1, 1, 16)
    ctx = padic_ctx(2, 16)
    a = ctx.from_int(128)
    assert hilbert(ctx, a, a) == 0
    assert qf_oracle(ctx, a, a, 8)


@pytest.mark.parametrize("p, B", [(2, 2), (2, 4), (3, 2)])
def test_qf_oracle_rejects_search_precision_below_head(p, B):
    ctx = padic_ctx(p, 8)
    with pytest.raises(PrecisionTooLow):
        qf_oracle(ctx, ctx.one(), ctx.one(), B)


@pytest.mark.parametrize("p, B", [(101, 8), (2, 21), (2, 10 ** 9)])
def test_qf_oracle_rejects_sweeps_above_bound(p, B):
    ctx = padic_ctx(p, 8)
    with pytest.raises(SweepTooLarge):
        qf_oracle(ctx, ctx.from_int(3), ctx.from_int(5), B)
