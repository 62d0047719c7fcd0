"""Complete discrete valuation rings at finite precision.

Two models share one interface: p-adic integers/numbers (mixed
characteristic, residue field F_p, uniformizer p) and truncated Laurent
series F_q((t)) (equicharacteristic, uniformizer t).  A LocalFieldCtx
provides element factories, residue maps and the u * pi^k decomposition;
LOCAL_CTXS builds one from its model name.  The two lifts from the
residue field that every higher layer relies on live here once each:
Teichmuller representatives and ell-th roots of principal units.
"""

from __future__ import annotations

import re
from functools import lru_cache

from ..errors import (
    BadInput,
    BadPrime,
    ContextMismatch,
    NewtonConditionFails,
    NotAUnit,
    PatternMismatch,
    PrecisionTooLow,
    ZeroElement,
)
from .finite_field import (FIELD_BOUND, FFElement, FiniteFieldCtx,
                           factorize, ff_ctx, ff_ctx_q)
from .laurent import LaurentSeries
from .padic import PadicNumber

PADIC = "padic"
LAURENT = "laurent"

# Largest unit size a context may promise, in bits: prec times the bit
# length of q.  It keeps p^prec well inside Python's 4300-digit int/str
# conversion limit for every prime p (4096 bits are 1234 decimal digits),
# so every element serializes and parses back, and it bounds the cost of
# each digit operation (README, "Precision model", has measured times).
MAX_UNIT_BITS = 4096


def unit_decompose(x):
    """Split nonzero x as (k, u) with x = u * pi^k and u a unit."""
    if x.is_zero():
        raise ZeroElement("zero has no unit decomposition")
    if x.val == 0:
        return 0, x
    if isinstance(x, PadicNumber):
        return x.val, PadicNumber(x.p, x.prec, 0, x.unit)
    return x.val, LaurentSeries.from_encs(x.base, x.prec, 0, x.coeffs)


class LocalFieldCtx:
    """Context for one local field F with valuation ring O.

    model is "padic" (F = Q_p, O = Z_p) or "laurent" (F = F_q((t)),
    O = F_q[[t]]).  All elements produced by this context carry the same
    precision, the number of significant uniformizer-adic digits.

    Elements are immutable, so a context hands out shared ones: the
    uniformizer, built with the context, and the Teichmuller lifts, kept
    in ``_teich`` by residue encoding as teichmuller() first asks for
    each (at most q - 1 of them).
    """

    __slots__ = ("model", "prec", "residue_field", "_pi", "_teich")
    encoded = False  # a Poly over O stores local numbers

    def __init__(self, model: str, residue_field: FiniteFieldCtx, prec: int):
        if model not in (PADIC, LAURENT):
            raise BadInput(f"unknown local field model {model!r}")
        if prec < 1:
            raise PrecisionTooLow(f"precision must be at least 1, got {prec}")
        if prec * residue_field.q.bit_length() > MAX_UNIT_BITS:
            raise BadInput(
                f"precision {prec} over F_{residue_field.q} needs units of "
                f"{prec * residue_field.q.bit_length()} bits, above the "
                f"bound of {MAX_UNIT_BITS}")
        if model == PADIC and residue_field.f != 1:
            raise BadPrime("p-adic model needs a prime residue field")
        self.model = model
        self.residue_field = residue_field
        self.prec = prec
        self._pi = (PadicNumber(self.p, prec, 1, 1) if model == PADIC
                    else LaurentSeries.from_encs(residue_field, prec, 1,
                                                 (1,) + (0,) * (prec - 1)))
        self._teich = {}

    @property
    def p(self) -> int:
        return self.residue_field.p

    @property
    def q(self) -> int:
        return self.residue_field.q

    def __repr__(self):
        if self.model == PADIC:
            return f"LocalFieldCtx(Z_{self.p}, prec={self.prec})"
        return f"LocalFieldCtx(F_{self.q}[[t]], prec={self.prec})"

    def __eq__(self, other):
        return (isinstance(other, LocalFieldCtx) and self.model == other.model
                and self.residue_field is other.residue_field and self.prec == other.prec)

    def __hash__(self):
        return hash((self.model, self.q, self.prec))

    # --- element factories ------------------------------------------------

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def minus_one(self):
        return self.from_int(-1)

    def from_int(self, n: int):
        if self.model == PADIC:
            return PadicNumber.from_int(self.p, self.prec, n)
        return LaurentSeries.from_int(self.residue_field, self.prec, n)

    def uniformizer(self):
        """p or t, one shared element per context: elements are immutable."""
        return self._pi

    def random_unit(self, rng):
        if self.model == PADIC:
            u = rng.randrange(1, self.p ** self.prec)
            while u % self.p == 0:
                u = rng.randrange(1, self.p ** self.prec)
            return PadicNumber(self.p, self.prec, 0, u)
        base = self.residue_field
        coeffs = [base.random_nonzero(rng)]
        coeffs += [base.random_element(rng) for _ in range(self.prec - 1)]
        return LaurentSeries(base, self.prec, 0, coeffs)

    # --- residue maps -----------------------------------------------------

    def residue(self, x) -> FFElement:
        """Image of a unit in the residue field kappa."""
        if x.is_zero() or x.val != 0:
            raise NotAUnit("residue map needs a unit")
        return self.residue_field.from_enc(self.residue_enc(x))

    def residue_enc(self, x) -> int:
        """The encoding of the image in kappa of a unit x, read off its
        first digit; the caller checks that x is a unit."""
        if self.model == PADIC:
            return x.unit % self.p
        return x.coeffs[0]

    def lift_residue(self, c: FFElement):
        """Tautological lift kappa^x -> O^x (integer rep / constant series)."""
        self._check_unit_residue(c)
        if self.model == PADIC:
            return PadicNumber(self.p, self.prec, 0, c.as_int())
        return LaurentSeries.constant(c, self.prec)

    def _check_unit_residue(self, c: FFElement):
        """Refuse a residue that is zero or lives in another field."""
        if c.ctx is not self.residue_field:
            raise ContextMismatch(f"{c!r} is not a residue of {self!r}")
        if c.is_zero():
            raise ZeroElement("cannot lift zero to a unit")

    split = staticmethod(unit_decompose)  # (v(x), u), x = u * pi^v(x)

    def is_principal_unit(self, x) -> bool:
        """Unit congruent to 1 mod the maximal ideal (the subgroup U_1)."""
        return (not x.is_zero()) and x.val == 0 and self.residue(x).is_one()

    # --- parsing ----------------------------------------------------------

    # re.ASCII: \d would also match other scripts' digits, which int() reads
    _PADIC_RE = re.compile(r"^padic\((\d+),(\d+)\):(?:0|(\d+)\*p\^(-?\d+))$",
                           re.ASCII)
    _LAURENT_RE = re.compile(
        r"^laurent\((\d+),(\d+)\):(?:0|t\^(-?\d+)\*\((\d+(?:,\d+)*)\))$",
        re.ASCII)

    def parse(self, s: str):
        try:
            return self._parse(s.strip())
        except ValueError as e:  # an integer past Python's digit limit
            raise PatternMismatch(f"cannot parse local element: {e}") from None

    def _parse(self, s: str):
        m = self._PADIC_RE.match(s)
        if m:
            p, prec = int(m.group(1)), int(m.group(2))
            if self.model != PADIC or p != self.p:
                raise PatternMismatch(f"element {s!r} does not live in {self!r}")
            if prec < 1:
                raise PatternMismatch(f"element {s!r} has no digits")
            if m.group(3) is None:
                return PadicNumber.zero(p, min(prec, self.prec))
            unit = int(m.group(3))
            if unit % p == 0:
                raise PatternMismatch(f"unit part of {s!r} is divisible by {p}")
            return PadicNumber(p, min(prec, self.prec), int(m.group(4)), unit)
        m = self._LAURENT_RE.match(s)
        if m:
            q, prec = int(m.group(1)), int(m.group(2))
            if self.model != LAURENT or q != self.q:
                raise PatternMismatch(f"element {s!r} does not live in {self!r}")
            if prec < 1:
                raise PatternMismatch(f"element {s!r} has no coefficients")
            prec = min(prec, self.prec)
            if m.group(3) is None:
                return LaurentSeries.zero(self.residue_field, prec)
            encs = [int(d) for d in m.group(4).split(",")]
            if max(encs) >= q:
                raise PatternMismatch(f"a coefficient of {s!r} is {q} or more")
            return LaurentSeries.make(self.residue_field, prec,
                                      int(m.group(3)), encs[:prec])
        raise PatternMismatch(f"cannot parse local element {s!r}")


@lru_cache(maxsize=None)
def padic_ctx(p: int, prec: int) -> LocalFieldCtx:
    # above the field bound ff_ctx refuses p before any trial division
    if p <= FIELD_BOUND and factorize(p) != {p: 1}:
        raise BadPrime(f"{p} is not prime")
    return LocalFieldCtx(PADIC, ff_ctx(p, 1), prec)


@lru_cache(maxsize=None)
def laurent_ctx(q: int, prec: int) -> LocalFieldCtx:
    return LocalFieldCtx(LAURENT, ff_ctx_q(q), prec)


# model name -> context constructor (q, prec): the field specs of the CLI
# and the ctx lines of certificates, which write model(q,prec) (q = p)
LOCAL_CTXS = {PADIC: padic_ctx, LAURENT: laurent_ctx}


# --- lifts from the residue field -----------------------------------------


def teichmuller(ctx: LocalFieldCtx, c: FFElement):
    """The unique (q-1)-th root of unity in O with residue c != 0, one
    shared element per context and residue.

    Every call checks that c is a nonzero residue of this context, so a
    zero residue or one of another field raises and is never cached, and
    then reads the context's table, keyed by the encoding of c.  A
    missing entry is filled once.  The lifts form a cyclic group mod
    pi^prec, the image of kappa^x, so each way of filling an entry gives
    the same digits.
    """
    # omega = lim w^(q^k); each Frobenius step fixes one more digit, so
    # prec steps fix them all: one power by q^prec.  Over Z_p that power
    # is taken once per context, for the generator g; any other lift is
    # omega(g)^dlog(c), an exponent below q - 1, read from the field's log
    # table (baby-step/giant-step above it).  Over F_q[[t]] the constant
    # lift of c is already a root of unity: the power is the monomial
    # short-cut c^(q^prec) = c, and needs no discrete log
    ctx._check_unit_residue(c)
    omega = ctx._teich.get(c.enc)
    if omega is None:
        kappa = ctx.residue_field
        if ctx.model == PADIC and c.enc != kappa.generator_enc:
            omega = teichmuller(ctx, kappa.gen()) ** c.dlog()
        else:
            omega = ctx.lift_residue(c) ** (ctx.q ** ctx.prec)
        ctx._teich[c.enc] = omega
    return omega


def principal_unit_root(ctx: LocalFieldCtx, x, ell: int):
    """The ell-th root of a principal unit x, for ell coprime to p: the
    unique root in U_1, at x's relative precision N.

    U_1 is ell-divisible: X^ell - x has the simple root 1 mod pi (its
    derivative ell is a unit), so the root exists and is unique in U_1.
    Each model finds it exactly, in closed form or by integer Newton
    steps; the Z_p roots are tested against sympy's nthroot_mod.

    Over F_q[[t]], Frobenius is additive: (1 + y)^(p^k) = 1 + y^(p^k),
    which is 1 mod t^N once p^k >= N.  So U_1 mod t^N has exponent p^k,
    and m = ell^-1 mod p^k, with m * ell = 1 + j p^k, gives
    (x^m)^ell = x * (x^(p^k))^j = x: one power, which
    LaurentSeries.__pow__ splits into the base-p digits of m.  Each
    distinct nonzero digit d costs at most 2 log2 d dense products: none
    for p = 2 and one for p = 3.  Each further nonzero digit costs one
    product against a sparse Frobenius factor.

    Over Z_p, Newton's step r <- r - (r^ell - u) / (ell r^(ell-1)) on the
    integer unit u doubles the number of correct digits, since the
    derivative is a unit (Caruso, "Computations with p-adic numbers",
    arXiv:1701.06794); r = 1 is correct mod p, and every step is exact
    integer arithmetic mod p^k.
    """
    if not ctx.is_principal_unit(x):
        raise NotAUnit("ell-th roots are only guaranteed on U_1")
    if ell % ctx.p == 0:
        raise NewtonConditionFails(f"exponent {ell} not coprime to p = {ctx.p}")
    prec, p = x.prec, ctx.p
    if ctx.model == LAURENT:
        pk = p
        while pk < prec:
            pk *= p
        return x ** pow(ell, -1, pk)
    u, r, k = x.unit, 1, 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p ** k
        r_lm1 = pow(r, ell - 1, mod)
        r = (r - (r_lm1 * r - u) * pow(ell * r_lm1, -1, mod)) % mod
    return PadicNumber(p, prec, 0, r)
