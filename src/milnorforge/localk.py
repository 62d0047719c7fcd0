"""Milnor K-theory of local fields: tame symbol, mod-m reduction and
lifting, the sampled exactness check of the tame sequence,
machine-checkable divisibility certificates, Hilbert symbols.

The divisibility certificates are the heart of the module.  A certificate
claims alpha = ell*beta + sum of relator applications inside the free
abelian group on symbols (symbols.MilnorClass), where every relator
application is one of a small fixed vocabulary of moves (bilinear
expansion, swap, Steinberg, {x,-x}, {x,x}, Hensel root extraction).  The
table _STEP_KINDS is that vocabulary: each kind's position shape, aux
entries, side condition and relator, read by the replay and by the text
form alike.  The verifier replays the steps with no trust in the
producer: it re-checks every side condition and the final formal-sum
identity, and the builder self-checks by the same replay.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple

from .arith.local import (
    LAURENT,
    LOCAL_CTXS,
    PADIC,
    LocalFieldCtx,
    principal_unit_root,
    teichmuller,
    unit_decompose,
)
from .errors import (
    BadInput,
    BadModulus,
    ContextMismatch,
    MixedCharRejected,
    NonUnitEntry,
    PatternMismatch,
    PiEntryPresent,
    PrecisionTooLow,
    SelfCheckFailed,
    SweepTooLarge,
    ZeroInput,
)
from .symbols import (MilnorClass, ff_congruent, ff_kgroup, symbol,
                      tame_rewrite)

# --------------------------------------------------------------------------
# generator form and the tame symbol
# --------------------------------------------------------------------------


def generator_form(ctx: LocalFieldCtx, a: MilnorClass) -> MilnorClass:
    """Rewrite a class so every term is {pi,u_2,...,u_n} or all units
    (symbols.tame_rewrite)."""
    pi_terms, unit_terms = tame_rewrite(ctx, a)
    return MilnorClass(ctx, a.degree, pi_terms + unit_terms)


def tame(ctx: LocalFieldCtx, a: MilnorClass) -> MilnorClass:
    """Tame symbol: {pi,u_2,...,u_n} -> {u_2 bar,...,u_n bar}, V_n -> 0.

    A residue tail containing 1 is kept as written: {pi,6} over Q_5 gives
    {1} in K_1(F_5), a zero class that still shows its term.  The map is
    linear, so the residues of the unmerged pi-terms of tame_rewrite give
    the same class as those of the merged generator form.
    """
    pi_terms, _ = tame_rewrite(ctx, a)  # pure-unit terms die
    return MilnorClass(ctx.residue_field, a.degree - 1,
                       [(c, [ctx.residue(e) for e in ent[1:]])
                        for c, ent in pi_terms])


# --------------------------------------------------------------------------
# the mod-m isomorphism of units (reduce / lift)
# --------------------------------------------------------------------------


def _check_modulus(ctx: LocalFieldCtx, m: int):
    if m < 2 or math.gcd(m, ctx.p) != 1:
        raise BadModulus(f"modulus {m} must be >= 2 and coprime to p = {ctx.p}")


def reduce_mod_m(ctx: LocalFieldCtx, a: MilnorClass, m: int) -> MilnorClass:
    """Entrywise residue map on unit symbols; realizes (K_n O)/m -> (K_n kappa)/m."""
    _check_modulus(ctx, m)
    for t in a.terms:
        for e in t.entries:
            if e.val != 0:
                raise NonUnitEntry(f"entry {e!r} is not a unit of O")
    return a.map_entries(ctx.residue, new_ctx=ctx.residue_field)


def lift_mod_m(ctx: LocalFieldCtx, b: MilnorClass, m: int) -> MilnorClass:
    """Entrywise Teichmuller lift; section of reduce_mod_m."""
    _check_modulus(ctx, m)
    return b.map_entries(lambda e: teichmuller(ctx, e), new_ctx=ctx)


# --------------------------------------------------------------------------
# exactness of 0 -> K_n(O)/m -> K_n(F)/m -> K_{n-1}(kappa)/m -> 0 on samples
# --------------------------------------------------------------------------


def _random_kappa_class(kappa, degree: int, rng) -> MilnorClass:
    if degree == 0:
        return MilnorClass(kappa, 0, [(rng.randrange(1, 5), ())])
    return symbol(kappa, [kappa.random_nonzero(rng) for _ in range(degree)])


def gersten_check(ctx: LocalFieldCtx, n: int, m: int, samples: int,
                  rng) -> list:
    """Exactness legs of 0 -> K_n(O)/m -> K_n(F)/m -> K_{n-1}(kappa)/m -> 0
    on sampled classes: tame kills unit symbols, the section hits every
    sampled kappa-class, and constructed tame-kernel classes are exhibited
    in pure-unit form modulo m.  One (ok, counterexample, fields) triple
    per sample, as in `checks`; the counterexample is the unit symbol.
    """
    if ctx.model != LAURENT:
        raise MixedCharRejected(
            "gersten-check is equicharacteristic only: the Q_p statement in "
            "degree >= 3 is theory-backed, not desk-checked")
    _check_modulus(ctx, m)
    if n not in (1, 2, 3):
        raise BadInput(f"gersten-check covers degrees 1, 2 and 3, got {n}")
    if samples < 0:
        raise BadInput(f"the sample count must be >= 0, got {samples}")
    kappa = ctx.residue_field
    out = []
    for i in range(samples):
        # leg 1: tame o iota = 0 on unit symbols
        b = symbol(ctx, [ctx.random_unit(rng) for _ in range(n)])
        leg1 = tame(ctx, b).is_zero()

        # leg 2: the section s(c) = {pi} * Teichmuller lifts of c hits
        # the sampled kappa-class
        c = _random_kappa_class(kappa, n - 1, rng)
        sc = symbol(ctx, [ctx.uniformizer()]) * c.map_entries(
            lambda e: teichmuller(ctx, e), new_ctx=ctx)
        leg2 = ff_congruent(tame(ctx, sc), c, m)

        # leg 3: a constructed tame-kernel class has pure-unit form mod m
        leg3, kernel_kind = _kernel_leg(ctx, n, m, rng)
        out.append((leg1 and leg2 and leg3, b.serialize, dict(
            op="gersten_check", index=i, n=n, m=m,
            iota_killed=str(leg1).lower(), section_onto=str(leg2).lower(),
            kernel_pure_unit=str(leg3).lower(), kernel_witness=kernel_kind)))
    return out


def _kernel_leg(ctx: LocalFieldCtx, n: int, m: int, rng):
    """Build a class with tame image 0 mod m and exhibit its pure-unit
    form: the pi-carrying part is m-divisible (Teichmuller order, Hensel
    roots of principal units) or a Steinberg relator."""
    kappa = ctx.residue_field
    pi = ctx.uniformizer()
    if n == 1:
        # a = u * pi^(m*j): residue of tame is m*j = 0 mod m, and
        # a = {u} + m*j*{pi} splits off the unit part exactly
        j = rng.randrange(1, 3)
        u = ctx.random_unit(rng)
        a = symbol(ctx, [u * pi ** (m * j)])
        g = generator_form(ctx, a)
        unit_part = [t for t in g.terms if t.entries[0] != pi]
        pi_part = [t for t in g.terms if t.entries[0] == pi]
        if u.is_one():
            # {1} is the trivial symbol, so no unit term survives
            unit_ok = not unit_part
        else:
            unit_ok = len(unit_part) == 1 and unit_part[0].entries[0] == u
        ok = (ff_congruent(tame(ctx, a), MilnorClass.zero(kappa, 0), m)
              and unit_ok
              and sum(t.coeff for t in pi_part) == m * j)
        return ok, "valuation"
    if n == 2:
        # a = iota(b) + m*alpha*{pi, w} + {pi, principal unit}
        alpha = rng.randrange(1, 3)
        w = teichmuller(ctx, kappa.random_nonzero(rng))
        pu = ctx.one() + ctx.uniformizer() * ctx.random_unit(rng)
        root = principal_unit_root(ctx, pu, m)
        a = symbol(ctx, [pi, w]).scale(m * alpha) + symbol(ctx, [pi, pu])
        kernel = ff_congruent(tame(ctx, a), MilnorClass.zero(kappa, 1), m)
        ok = kernel and (root ** m) == pu
        return ok, "hensel"
    # n == 3: {pi, x, 1-x} with exact Steinberg entries via Teichmuller;
    # over F_2 no such pair exists in kappa, so use a Hensel root of a
    # principal unit instead: {pi, u, pu} = m * {pi, u, pu^(1/m)}
    if kappa.q == 2:
        u = ctx.random_unit(rng)
        pu = ctx.one() + ctx.uniformizer() * ctx.random_unit(rng)
        root = principal_unit_root(ctx, pu, m)
        a = symbol(ctx, [pi, u, pu])
        kernel = ff_congruent(tame(ctx, a), MilnorClass.zero(kappa, 2), m)
        return kernel and (root ** m) == pu, "hensel"
    while True:
        x = teichmuller(ctx, kappa.random_nonzero(rng))
        y = ctx.one() - x
        if not y.is_zero():
            break
    a = symbol(ctx, [pi, x, y])
    kernel = tame(ctx, a).is_zero() or ff_congruent(
        tame(ctx, a), MilnorClass.zero(kappa, 2), m)
    steinberg = (x + y).is_one() and not y.is_zero()
    return kernel and steinberg, "steinberg"


# --------------------------------------------------------------------------
# divisibility certificates
# --------------------------------------------------------------------------

BILINEAR_EXPAND = "BILINEAR_EXPAND"
SWAP = "SWAP"
STEINBERG_ZERO = "STEINBERG_ZERO"
MINUS_SELF = "MINUS_SELF"
SELF_TO_MINUS_ONE = "SELF_TO_MINUS_ONE"
HENSEL_ROOT = "HENSEL_ROOT"


def _put(entries, i, x):
    """entries with entry i replaced by x."""
    return entries[:i] + (x,) + entries[i + 1:]


class _Kind(NamedTuple):
    pair: bool  # pos is a pair (i, j), else one index i
    n_aux: int  # aux entries the step carries
    after: int  # entries the relator reads after pos
    holds: Callable  # side condition on (entries, pos, aux, ell)
    failure: str  # what violation() says when it fails; {ell} is filled in
    relator: Callable  # (coeff, entries) pairs on (e, pos, aux, ctx, ell)


# The step vocabulary: the only place that knows a kind.  CertStep's
# violation and relator, parse_certificate and serialize_certificate all
# read it.
_STEP_KINDS = {
    # pos, aux = (y, z) with y*z = entries[pos]
    BILINEAR_EXPAND: _Kind(
        False, 2, 0, lambda e, i, aux, ell: aux[0] * aux[1] == e[i],
        "y*z does not match the expanded entry",
        lambda e, i, aux, ctx, ell: [(1, e), (-1, _put(e, i, aux[0])),
                                     (-1, _put(e, i, aux[1]))]),
    # pos = (i, j)
    SWAP: _Kind(
        True, 0, 0, lambda e, ij, aux, ell: ij[0] != ij[1],
        "swap of equal positions",
        lambda e, ij, aux, ctx, ell: [
            (1, e), (1, _put(_put(e, ij[0], e[ij[1]]), ij[1], e[ij[0]]))]),
    # pos = (i, j) with entries[i] + entries[j] = 1
    STEINBERG_ZERO: _Kind(
        True, 0, 0, lambda e, ij, aux, ell:
            ij[0] != ij[1] and (e[ij[0]] + e[ij[1]]).is_one(),
        "entries do not sum to 1", lambda e, *_: [(1, e)]),
    # pos = i with entries[i] + entries[i+1] = 0
    MINUS_SELF: _Kind(
        False, 0, 1, lambda e, i, aux, ell: (e[i] + e[i + 1]).is_zero(),
        "entries are not (x, -x)", lambda e, *_: [(1, e)]),
    # pos = i with entries[i] = entries[i+1]
    SELF_TO_MINUS_ONE: _Kind(
        False, 0, 1, lambda e, i, aux, ell: (e[i] - e[i + 1]).is_zero(),
        "entries are not (x, x)",
        lambda e, i, aux, ctx, ell: [(1, e),
                                     (-1, _put(e, i + 1, ctx.minus_one()))]),
    # pos = i, aux = (root,) with root^ell = entries[i]
    HENSEL_ROOT: _Kind(
        False, 1, 0, lambda e, i, aux, ell: aux[0] ** ell == e[i],
        "root^{ell} does not reproduce the entry",
        lambda e, i, aux, ctx, ell: [(1, e), (-ell, _put(e, i, aux[0]))]),
}


class CertStep:
    """One relator application: `mult` times a relator that is 0 in K^M.
    The kind's payload (pos, aux) is described in _STEP_KINDS."""

    __slots__ = ("kind", "mult", "entries", "pos", "aux")

    def __init__(self, kind, mult, entries, pos, aux=()):
        self.kind = kind
        self.mult = mult
        self.entries = tuple(entries)
        self.pos = pos
        self.aux = tuple(aux)

    def violation(self, ell: int) -> str:
        """Why the step's side condition fails, or "" when it holds.  A zero
        entry fails every kind: a symbol has none, and y*z = 0 = e[pos]
        would let a BILINEAR_EXPAND step cancel any symbol."""
        e, aux, n = self.entries, self.aux, len(self.entries)
        for i, x in enumerate(e + aux):
            if x.is_zero():
                return f"entry {i} is zero" if i < n else \
                    f"aux entry {i - n} is zero"
        kind = _STEP_KINDS.get(self.kind)
        if kind is None:
            return f"unknown step kind {self.kind!r}"
        if kind.holds(e, self.pos, aux, ell):
            return ""
        return kind.failure.format(ell=ell)

    def relator(self, ctx: LocalFieldCtx, ell: int):
        """The formal sum this step claims to be zero, as (coefficient,
        entries) pairs.  It is zero in K^M only when violation() is ""."""
        return _STEP_KINDS[self.kind].relator(self.entries, self.pos,
                                              self.aux, ctx, ell)


class DivisibilityCertificate:
    """Replayable witness that alpha = ell*beta modulo Steinberg relations."""

    __slots__ = ("ctx", "ell", "alpha", "beta", "steps")

    def __init__(self, ctx, ell, alpha, beta, steps):
        self.ctx = ctx
        self.ell = ell
        self.alpha = alpha
        self.beta = beta
        self.steps = list(steps)


class VerifyResult:
    __slots__ = ("ok", "failure")

    def __init__(self, ok: bool, failure: str = ""):
        self.ok = ok
        self.failure = failure

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "verified" if self.ok else f"FAILED: {self.failure}"


def _replay(cert: DivisibilityCertificate):
    """Check each step's side condition, then book alpha - ell*beta -
    sum(mult*relator) as one MilnorClass.  Returns (the first failing
    step's reason, None), or ("", that class).  violation() names a zero
    entry before the constructor's own check could refuse it."""
    ell = cert.ell
    pairs = list(cert.alpha.terms)
    pairs += [(-ell * c, ent) for c, ent in cert.beta.terms]
    for idx, step in enumerate(cert.steps):
        why = step.violation(ell)
        if why:
            return f"step {idx} ({step.kind}): {why}", None
        m = -step.mult
        pairs += [(m * c, ent) for c, ent in step.relator(cert.ctx, ell)]
    return "", MilnorClass(cert.ctx, cert.alpha.degree, pairs)


def verify_certificate(cert: DivisibilityCertificate) -> VerifyResult:
    """Replay all steps; confirm alpha - ell*beta - sum(relators) = 0."""
    if cert.ell < 2:
        return VerifyResult(False, f"divisor {cert.ell} below 2")
    why, residual = _replay(cert)
    if not why and not residual.is_zero():
        why = "residual formal sum is nonzero"
    return VerifyResult(not why, why)


def _kill_one_entry(steps: list, ctx: LocalFieldCtx, mult, entries, pos):
    """Remove mult*[..,1,..]: the relator [e]-2[e] = -[e] (1 = 1*1)."""
    one = ctx.one()
    if not entries[pos].is_one():
        raise SelfCheckFailed(f"entry {pos} to kill is not 1")
    steps.append(CertStep(BILINEAR_EXPAND, -mult, entries, pos, (one, one)))


def _expand_power(steps: list, mult, entries, pos, base, e):
    """Replace mult*[..,base^e,..] by e*mult*[..,base,..] (e >= 1)
    along the binary chain: an even exponent splits base^e into two
    equal halves and doubles mult, an odd one peels off one base.  At
    most 2*floor(log2 e) steps (Knuth, TAOCP vol. 2, 4.6.3).  A negative
    mult is the inverse move, the contraction of e*(-mult)*[..,base,..]
    into -mult*[..,base^e,..]."""
    ks = [e]  # the chain e -> ... -> 1, then base^k along it bottom-up
    while ks[-1] > 1:
        ks.append(ks[-1] - 1 if ks[-1] % 2 else ks[-1] // 2)
    pows = [base]
    for k in ks[-2:0:-1]:
        pows.append(pows[-1] * (base if k % 2 else pows[-1]))
    ent = entries
    for k, lower in zip(ks[:-1], reversed(pows)):
        steps.append(CertStep(BILINEAR_EXPAND, mult, ent, pos,
                              (base if k % 2 else lower, lower)))
        if not k % 2:
            mult *= 2
        ent = _put(ent, pos, lower)


def divisibility_witness(ctx: LocalFieldCtx, a: MilnorClass, ell: int
                         ) -> DivisibilityCertificate:
    """Produce a verified certificate that [a] is divisible by ell.

    Requires unit entries, degree >= 2, and gcd(ell, p) = 1.  The
    algorithm follows the proof of the mod-m isomorphism: split each
    entry through the Teichmuller section, absorb the principal-unit
    parts by their ell-th roots (HENSEL_ROOT steps; principal_unit_root
    computes each root exactly, by one power over F_q[[t]] and by integer
    Newton steps over Z_p), merge the residual Teichmuller terms in the
    free abelian group, and discharge that class against the finite-field
    Steinberg relators, each lifted to O by u^{-1}-scaling: the row i*j of
    ff_kgroup is [g^i,g^j,g,..,g].  Powers of g expand and contract along
    binary chains (_expand_power), so a certificate has O(n log q) steps.
    The Teichmuller parts of a and lift(reduce(a)) cancel before any
    expansion, so the certificate of a - lift(reduce(a)) for a unit
    symbol a has two steps per entry that is not its own Teichmuller
    lift.  The builder records the steps only.  One replay of them, the
    verifier's own (_replay), checks every side condition, raising
    SelfCheckFailed on a bad step, and books alpha minus the relators as
    one MilnorClass: that residual divided by ell is beta, its terms in
    the order of their serialized entries.
    """
    n = a.degree
    if n < 2:
        raise BadInput(f"certificates need degree >= 2, got degree {n}")
    _check_modulus(ctx, ell)
    for t in a.terms:
        for e in t.entries:
            if e.val != 0:
                raise PiEntryPresent(
                    "apply generator_form first: certificate entries must be units")

    kappa = ctx.residue_field
    q = kappa.q
    kg = ff_kgroup(q, n)
    g_lift = teichmuller(ctx, kappa.gen())
    steps: list[CertStep] = []

    # 1) split every entry as (Teichmuller part) * (principal unit part)
    residual: list[tuple[int, tuple]] = []
    for c, ee in a.terms:
        for pos in range(n):
            x = ee[pos]
            omega = g_lift ** ctx.residue(x).dlog()
            u1 = x * omega.inverse()
            if not u1.is_one():
                # the principal-unit part is absorbed right away
                root = principal_unit_root(ctx, u1, ell)
                steps += [
                    CertStep(BILINEAR_EXPAND, c, ee, pos, (omega, u1)),
                    CertStep(HENSEL_ROOT, c, _put(ee, pos, u1), pos, (root,))]
            ee = _put(ee, pos, omega)
        residual.append((c, ee))

    # 2) all-Teichmuller residual, merged in the free abelian group first
    # (a Teichmuller term of a and of lift(reduce(a)) cancels here): expand
    # each term to a multiple of {g,...,g}
    v_total = 0
    gens = (g_lift,) * n
    for c, ent in MilnorClass(ctx, n, residual).terms:
        exps = [ctx.residue(e).dlog() for e in ent]
        ones = [i for i, e in enumerate(exps) if e == 0]
        if ones:
            _kill_one_entry(steps, ctx, c, ent, ones[0])
            continue
        cur, mult = ent, c
        for pos in range(n):
            _expand_power(steps, mult, cur, pos, g_lift, exps[pos])
            cur = _put(cur, pos, g_lift)
            mult *= exps[pos]
        v_total += mult

    # 3) discharge v_total*{g,..,g} against the kappa Steinberg relators;
    # each contraction is an _expand_power with negated mult
    combo = kg.presentation.express_in_relators([v_total])
    for c_r, meta in zip(combo, kg.relator_meta):
        if c_r == 0:
            continue
        if meta[0] == "order":
            # c_r*(q-1)*[g,..,g] = c_r*[g^(q-1),g,..,g] = c_r*[1,g,..,g] = 0
            _expand_power(steps, -c_r, _put(gens, 0, g_lift ** (q - 1)), 0,
                         g_lift, q - 1)
            _kill_one_entry(steps, ctx, c_r, _put(gens, 0, ctx.one()), 0)
            v_total -= c_r * (q - 1)
            continue
        _, i, j = meta
        cur = _put(gens, 1, g_lift ** j)
        _expand_power(steps, -c_r * i, cur, 1, g_lift, j)
        cur = _put(cur, 0, g_lift ** i)
        _expand_power(steps, -c_r, cur, 0, g_lift, i)
        _discharge_steinberg_pair(steps, ctx, ell, c_r, cur)
        v_total -= c_r * i * j
    if v_total != 0:
        raise SelfCheckFailed(f"relator bookkeeping left {v_total}")

    # 4) replay the steps once: whatever remains of alpha must be an exact
    # multiple of ell, and that is beta
    cert = DivisibilityCertificate(ctx, ell, a, MilnorClass.zero(ctx, n),
                                   steps)
    why, remains = _replay(cert)
    if why:
        raise SelfCheckFailed(f"freshly built certificate failed: {why}")
    beta_terms = []
    for c, ent in remains.terms:
        if c % ell != 0:
            raise SelfCheckFailed(
                f"residual coefficient {c} not divisible by {ell}")
        beta_terms.append((c // ell, ent))
    cert.beta = MilnorClass(ctx, n, beta_terms)
    return cert


def _discharge_steinberg_pair(steps: list, ctx: LocalFieldCtx, ell: int,
                              c: int, ent):
    """Kill c*[a,b,rest], the residual term on ent that the caller's
    contractions left, where abar + bbar = 1 in kappa.

    a + b = u lies in U_1, so w = u^{-1} makes (wa) + (wb) = 1 exactly:
    [wa,wb,rest] is a Steinberg relator.  Expanding it bilinearly and
    absorbing the two w factors by w's ell-th root (two HENSEL_ROOT
    steps) leaves only multiples of ell.
    """
    x1, x2, rest = ent[0], ent[1], ent[2:]
    u = x1 + x2
    if not ctx.is_principal_unit(u):
        raise SelfCheckFailed("entries do not reduce to a Steinberg pair")
    w = u.inverse()
    wa, wb = w * x1, w * x2
    st = (wa, wb) + rest
    root = principal_unit_root(ctx, w, ell)
    steps += [
        CertStep(STEINBERG_ZERO, c, st, (0, 1)),
        # [wa, wb, rest] = [w, wb, rest] + [a, wb, rest]
        CertStep(BILINEAR_EXPAND, -c, st, 0, (w, x1)),
        # [a, wb, rest] = [a, w, rest] + [a, b, rest]
        CertStep(BILINEAR_EXPAND, -c, (x1, wb) + rest, 1, (w, x2)),
        # absorb the two w's by Hensel roots
        CertStep(HENSEL_ROOT, -c, (w, wb) + rest, 0, (root,)),
        CertStep(HENSEL_ROOT, -c, (x1, w) + rest, 1, (root,)),
    ]


# --------------------------------------------------------------------------
# certificate serialization (replayable text form)
# --------------------------------------------------------------------------


def _ser_entries(entries):
    return " | ".join(e.serialize() for e in entries)


def serialize_certificate(cert: DivisibilityCertificate) -> str:
    ctx = cert.ctx
    lines = ["divcert v1", f"ctx {ctx.model}({ctx.q},{ctx.prec})",
             f"ell {cert.ell}", f"degree {cert.alpha.degree}"]
    for t in cert.alpha.terms:
        lines.append(f"alpha {t.coeff} ; {_ser_entries(t.entries)}")
    for t in cert.beta.terms:
        lines.append(f"beta {t.coeff} ; {_ser_entries(t.entries)}")
    for s in cert.steps:
        pos = ",".join(map(str, s.pos)) if _STEP_KINDS[s.kind].pair \
            else str(s.pos)
        line = f"step {s.kind} {s.mult} {pos} ; {_ser_entries(s.entries)}"
        if s.aux:
            line += f" ; {_ser_entries(s.aux)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


INT_RE = re.compile(r"-?[0-9]+")
_CTX_RE = re.compile(rf"^({'|'.join(LOCAL_CTXS)})\(([0-9]+),([0-9]+)\)$")


def read_int(s: str) -> int | None:
    """The integer an ASCII `-?[0-9]+` string spells, else None: the one
    integer rule of the trust boundaries (certificate numbers here, CLI
    arguments and MILNOR_FORGE_BOUNDS in cli.parse_int), each caller
    raising its own error.  int() alone also takes `_`, a `+`, spaces and
    non-ASCII digits."""
    try:
        return int(s) if INT_RE.fullmatch(s) else None
    except ValueError:  # past Python's 4300-digit limit
        return None


def parse_certificate(text: str) -> DivisibilityCertificate:
    """Read serialize_certificate's text.  Any line that does not fit the
    format, or the shape its step kind needs, raises PatternMismatch naming
    the line, so the verifier only ever sees well-formed steps."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or lines[0] != "divcert v1":
        raise PatternMismatch("not a certificate file")
    ctx = ell = degree = None
    alpha_terms, beta_terms, steps = [], [], []
    parsed = {}  # stripped entry text -> its (immutable, shared) element
    ln = None  # the line being read: bad, num and entries name it

    def bad(why):
        return PatternMismatch(f"certificate line {ln!r}: {why}")

    def num(field):
        field = field.strip()
        n = read_int(field)
        if n is None:
            raise bad(f"{field!r} is not an integer")
        return n

    def entries(field, count):
        parts = [e.strip() for e in field.split("|")]
        if len(parts) != count:
            raise bad(f"{len(parts)} entries where {count} belong")
        try:
            for e in parts:
                if e not in parsed:
                    parsed[e] = ctx.parse(e)
        except PatternMismatch as e:
            raise bad(str(e)) from None
        return [parsed[e] for e in parts]

    for ln in lines[1:]:
        kind, _, rest = ln.partition(" ")
        rest = rest.strip()
        if kind in ("ctx", "ell", "degree"):
            if {"ctx": ctx, "ell": ell, "degree": degree}[kind] is not None:
                raise bad(f"a second {kind} line")
            if kind == "ctx":
                m = _CTX_RE.match(rest)
                if not m:
                    raise bad("needs padic(p,prec) or laurent(q,prec)")
                ctx = LOCAL_CTXS[m.group(1)](num(m.group(2)), num(m.group(3)))
            elif kind == "ell":
                ell = num(rest)
            elif (degree := num(rest)) < 2:
                raise bad("certificates need degree >= 2")
            continue
        if ctx is None or ell is None or degree is None:
            raise bad("the ctx, ell and degree lines must come first")
        if kind in ("alpha", "beta"):
            coeff_s, _, ents = rest.partition(";")
            term = (num(coeff_s), entries(ents, degree))
            (alpha_terms if kind == "alpha" else beta_terms).append(term)
        elif kind == "step":
            parts = rest.split(";")
            head = parts[0].split()
            if len(head) != 3 or head[0] not in _STEP_KINDS:
                raise bad("needs `step KIND mult pos ; entries [; aux]`")
            skind, mult_s, pos_s = head
            pair, n_aux, after, _, _, _ = _STEP_KINDS[skind]
            if len(parts) != (3 if n_aux else 2):
                raise bad(f"a {skind} step needs {1 + bool(n_aux)} entry lists")
            pos = [num(x) for x in pos_s.split(",")] if pair else [num(pos_s)]
            if len(pos) != 1 + pair or \
                    not 0 <= min(pos) <= max(pos) < degree - after:
                raise bad(f"position {pos_s!r} does not fit a {skind} step "
                          f"of degree {degree}")
            aux = entries(parts[2], n_aux) if n_aux else []
            steps.append(CertStep(skind, num(mult_s), entries(parts[1], degree),
                                  tuple(pos) if pair else pos[0], aux))
        else:
            raise bad("unknown line kind")
    if ctx is None or ell is None or degree is None:
        raise PatternMismatch("certificate needs ctx, ell and degree lines")
    alpha = MilnorClass(ctx, degree, alpha_terms)
    beta = MilnorClass(ctx, degree, beta_terms)
    return DivisibilityCertificate(ctx, ell, alpha, beta, steps)


# --------------------------------------------------------------------------
# Hilbert symbol over Q_p with an independent quadratic-form oracle
# --------------------------------------------------------------------------


def hilbert(ctx: LocalFieldCtx, a, b):
    """Class of {a,b} in (K_2 Q_p)/p.

    p = 2: returns 0 or 1 via the closed formula
    eps(u)eps(v) + alpha*omega2(v) + beta*omega2(u) mod 2 for a = 2^alpha u,
    b = 2^beta v.  Odd p: returns the tame-pairing residue
    (-1)^{v(a)v(b)} a^{v(b)} b^{-v(a)} bar as a kappa element (the group
    (K_2 Q_p)/p is zero for odd p, so this shadow is killed by p), read
    off tame({a,b}), which sends {pi,u} to ubar, the inverse.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("hilbert symbol needs nonzero arguments")
    if ctx.model != PADIC:
        raise ContextMismatch("the Hilbert symbol needs a p-adic field")
    p = ctx.p
    if p == 2:
        if min(a.prec + a.val, b.prec + b.val) < 3 or min(a.prec, b.prec) < 3:
            raise PrecisionTooLow("p = 2 formula needs at least 3 digits")
        alpha, u = unit_decompose(a)
        beta, v = unit_decompose(b)
        eu, ev = (u.unit - 1) // 2 % 2, (v.unit - 1) // 2 % 2
        wu = (u.unit * u.unit - 1) // 8 % 2
        wv = (v.unit * v.unit - 1) // 8 % 2
        return (eu * ev + alpha * wv + beta * wu) % 2
    value = ctx.residue_field.one()
    for t in tame(ctx, symbol(ctx, [a, b])).terms:
        value = value * t.entries[0] ** -t.coeff
    return value


# largest p^B the oracle sweeps: p^B + p^(B-1) values take about a second
MAX_ORACLE_SWEEP = 1 << 20


def qf_oracle(ctx: LocalFieldCtx, a, b, search_precision: int) -> bool:
    """Independent ground truth: is z^2 = a x^2 + b y^2 solvable over Q_p?

    Sweep of primitive (x, y) modulo p^B, B the search precision.  A value
    w = a x^2 + b y^2 that is a p-adic square at a valuation comfortably
    below the search modulus certifies solvability (Hensel lifts the
    square root); a completed sweep with no such value certifies
    insolvability, because a primitive solution would already show up
    modulo p^B.  Multiplying a or b by p^2 changes nothing about
    solvability, so each coefficient is first brought to valuation 0 or 1.

    The sweep visits p^B + p^(B-1) pairs, not all p^(2B).  Scaling (x, y)
    by a unit u multiplies w by u^2, which keeps v(w) and the square class
    of w's unit part: u^2 = 1 mod 8 when p = 2, and u^2 is a quadratic
    residue when p is odd.  A primitive pair has x or y a unit.  If x is a
    unit, scale the pair to (1, y) with y over all residues mod p^B;
    otherwise scale it to (x, 1) with x over the multiples of p.  So the
    short sweep meets a certified square exactly when the full one does.

    Raises PrecisionTooLow when B leaves fewer than two digits above the
    `head` unit digits a certified square needs, and SweepTooLarge when
    p^B exceeds MAX_ORACLE_SWEEP.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroInput("oracle needs nonzero coefficients")
    if ctx.model != PADIC:
        raise ContextMismatch("the oracle needs a p-adic field")
    p = ctx.p
    B = search_precision
    # a value w != 0 mod p^B is a certified square when its valuation is
    # even with `head` unit digits to spare (Hensel lifts the root)
    head = 3 if p == 2 else 1
    if B < head + 2:
        raise PrecisionTooLow(
            f"the sweep needs search precision >= {head + 2} at p = {p}")
    # p >= 2, so p^B > MAX_ORACLE_SWEEP once B reaches its bit length:
    # capping the exponent keeps a huge B from building a huge power
    if p ** min(B, MAX_ORACLE_SWEEP.bit_length()) > MAX_ORACLE_SWEEP:
        raise SweepTooLarge(
            f"p^B = {p}^{B} exceeds the sweep bound {MAX_ORACLE_SWEEP}")
    va, ua = unit_decompose(a)
    vb, ub = unit_decompose(b)
    if min(ua.prec, ub.prec) < B:
        raise PrecisionTooLow(
            f"need {B} digits on the unit parts for the sweep")
    # z = 0 solutions: a x^2 = -b y^2, i.e. -b/a is a square
    ratio = (-b) * a.inverse()
    if ratio.val % 2 == 0:
        r_unit = ratio.unit
        if (p == 2 and r_unit % 8 == 1) or \
                (p != 2 and pow(r_unit, (p - 1) // 2, p) == 1):
            return True
    mod = p ** B
    A = ua.unit * p ** (va % 2) % mod
    Bb = ub.unit * p ** (vb % 2) % mod
    # unit parts are squares exactly when they lie in `squares` mod m
    m = 8 if p == 2 else p
    squares = {r * r % m for r in range(m) if r % p}

    def certified_square(w):
        w %= mod
        if w == 0:
            return False
        v = 0
        while w % p == 0:
            w //= p
            v += 1
        return v % 2 == 0 and v <= B - head and w % m in squares

    return any(certified_square(A + Bb * y * y) for y in range(mod)) or \
        any(certified_square(A * x * x + Bb) for x in range(0, mod, p))
