"""Rational function fields, simple extensions and places.

RatFuncCtx is the field of fractions of Poly over any exact coefficient
field, so the same class gives F_q(t) and, one level up, F(X) for
F = F_q(t).  QuotCtx is the quotient field F[X]/(pi).  Places of a
rational function field (monic irreducibles plus infinity) come with
valuations, residue maps, and the tame symbol at each place (through the
shared symbols.tame_rewrite), which is everything the Bass-Tate
constructions consume.  Valuations peel powers through Poly.strip; the
specialization certificate walks finite_field._extension_points.
"""

from __future__ import annotations

from .arith.factor import is_irreducible, poly_factor
from .arith.finite_field import FiniteFieldCtx, _extension_points
from .arith.poly import Poly, _power
from .errors import (
    BadInput,
    DegreeTooLarge,
    NotAUnit,
    NotMonic,
    SelfCheckFailed,
    ZeroElement,
)
from .symbols import MilnorClass, tame_rewrite

# --------------------------------------------------------------------------
# field of fractions of a polynomial ring
# --------------------------------------------------------------------------


class RatFuncCtx:
    """Field of fractions of base[var]; base is any exact field context."""

    __slots__ = ("base", "var")
    encoded = False  # a Poly over F(var) stores RatFuncElems

    def __init__(self, base, var: str = "t"):
        self.base = base
        self.var = var

    def zero(self):
        return RatFuncElem(self, Poly.zero(self.base), Poly.one(self.base))

    def one(self):
        return RatFuncElem(self, Poly.one(self.base), Poly.one(self.base))

    def minus_one(self):
        return RatFuncElem(self, Poly.const(self.base, self.base.minus_one()),
                           Poly.one(self.base))

    def from_int(self, n: int):
        return self.from_poly(Poly.const(self.base, self.base.from_int(n)))

    def from_poly(self, p: Poly) -> "RatFuncElem":
        return RatFuncElem(self, p, Poly.one(self.base))

    def from_const(self, c) -> "RatFuncElem":
        return self.from_poly(Poly.const(self.base, c))

    def gen(self) -> "RatFuncElem":
        """The variable itself (t, or X one level up)."""
        return self.from_poly(Poly.x(self.base))

    def random_poly(self, rng, max_deg: int) -> Poly:
        d = rng.randrange(0, max_deg + 1)
        coeffs = [self.base.random_element(rng) for _ in range(d)] \
            if d else []
        coeffs.append(self.base.random_nonzero(rng))
        return Poly(self.base, coeffs)

    def random_nonzero(self, rng, max_deg: int = 2) -> "RatFuncElem":
        return RatFuncElem(self, self.random_poly(rng, max_deg),
                           self.random_poly(rng, max_deg).monic())

    def random_element(self, rng, max_deg: int = 2) -> "RatFuncElem":
        if rng.randrange(6) == 0:
            return self.zero()
        return self.random_nonzero(rng, max_deg)

    def __eq__(self, other):
        return (isinstance(other, RatFuncCtx) and self.base == other.base
                and self.var == other.var)

    def __hash__(self):
        return hash(("ratfunc", self.var, self.base))

    def __repr__(self):
        return f"RatFuncCtx({self.base!r}, {self.var})"


class RatFuncElem:
    """Reduced fraction num/den with den monic and gcd(num, den) = 1.

    Euclid runs only when num and den both have degree >= 1: a zero
    numerator is 0/1, and a constant on either side already has gcd 1.
    The lowest-terms form over a monic denominator is unique, so the
    short-cuts give the same num and den as the gcd would."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: RatFuncCtx, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroElement("zero denominator")
        if num.is_zero():
            den = Poly.one(den.ctx)
        elif num.degree >= 1 and den.degree >= 1:
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
        if not den.is_monic():
            den, num = den.monic_with(num)
        self.ctx = ctx
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __add__(self, o):
        return RatFuncElem(self.ctx, self.num * o.den + o.num * self.den,
                           self.den * o.den)

    def __neg__(self):
        return RatFuncElem(self.ctx, -self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RatFuncElem(self.ctx, self.num * o.num, self.den * o.den)

    def inverse(self):
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        return RatFuncElem(self.ctx, self.den, self.num)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return RatFuncElem(self.ctx, self.num ** k, self.den ** k)

    def __eq__(self, other):
        return (isinstance(other, RatFuncElem)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def serialize(self) -> str:
        v = self.ctx.var
        if self.den.is_one():
            return self.num.serialize(v) if not self.num.is_zero() else "0"
        return f"({self.num.serialize(v)})/({self.den.serialize(v)})"

    def __repr__(self):
        return self.serialize()


# --------------------------------------------------------------------------
# simple extensions F[X]/(pi)
# --------------------------------------------------------------------------


class QuotCtx:
    """Field base_field[X] / (pi), pi monic irreducible.

    Whether pi is irreducible is decided at most once per context:
    pi_is_irreducible() decides it on first use and remembers the answer.
    """

    __slots__ = ("field", "pi", "_irreducible")
    encoded = False  # a Poly over F[X]/(pi) stores QuotElems

    def __init__(self, field, pi: Poly):
        if not pi.is_monic():
            raise NotMonic("defining polynomial must be monic")
        self.field = field  # the coefficient field context of pi
        self.pi = pi
        self._irreducible = None

    def pi_is_irreducible(self) -> bool:
        if self._irreducible is None:
            self._irreducible = irreducible_over(self.pi)
        return self._irreducible

    @property
    def degree(self) -> int:
        return self.pi.degree

    def zero(self):
        return QuotElem(self, Poly.zero(self.field))

    def one(self):
        return QuotElem(self, Poly.one(self.field))

    def minus_one(self):
        return QuotElem(self, Poly.const(self.field, self.field.minus_one()))

    def from_int(self, n: int):
        return QuotElem(self, Poly.const(self.field, self.field.from_int(n)))

    def from_base(self, c):
        return QuotElem(self, Poly.const(self.field, c))

    def from_poly(self, p: Poly):
        return QuotElem(self, p % self.pi)

    def theta(self):
        """The class of X."""
        return self.from_poly(Poly.x(self.field))

    def random_nonzero(self, rng):
        while True:
            coeffs = [self.field.random_element(rng)
                      for _ in range(self.degree)]
            p = Poly(self.field, coeffs)
            if not p.is_zero():
                return QuotElem(self, p)

    def random_element(self, rng):
        if rng.randrange(6) == 0:
            return self.zero()
        return self.random_nonzero(rng)

    def __eq__(self, other):
        return (isinstance(other, QuotCtx) and self.field == other.field
                and self.pi == other.pi)

    def __hash__(self):
        return hash(("quot", self.pi))

    def __repr__(self):
        return f"QuotCtx({self.pi.serialize('X')})"


class QuotElem:
    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: QuotCtx, rep: Poly):
        self.ctx = ctx
        self.rep = rep % ctx.pi if rep.degree >= ctx.pi.degree else rep

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_one(self) -> bool:
        return self.rep.is_one()

    def __add__(self, o):
        return QuotElem(self.ctx, self.rep + o.rep)

    def __neg__(self):
        return QuotElem(self.ctx, -self.rep)

    def __sub__(self, o):
        return QuotElem(self.ctx, self.rep - o.rep)

    def __mul__(self, o):
        return QuotElem(self.ctx, (self.rep * o.rep) % self.ctx.pi)

    def inverse(self):
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        g, s, _ = self.rep.xgcd(self.ctx.pi)
        if not g.is_one():
            raise BadInput("defining polynomial is not irreducible")
        return QuotElem(self.ctx, s % self.ctx.pi)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, self.ctx.one)

    def norm_to_base(self):
        """Field norm down to the coefficient field: Res(pi, rep)."""
        return self.ctx.pi.resultant(self.rep)

    def __eq__(self, other):
        return (isinstance(other, QuotElem) and self.ctx == other.ctx
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.ctx, self.rep))

    def serialize(self) -> str:
        return self.rep.serialize("X")

    def __repr__(self):
        return f"[{self.serialize()}]"


# --------------------------------------------------------------------------
# factorization into monic irreducibles over the coefficient field
# --------------------------------------------------------------------------

MAX_ROOT_SEARCH_DEGREE = 3
MAX_DIVISOR_CANDIDATES = 5000


def ff_sqrt(e):
    """A square root in F_q, or None: e^(q/2) in characteristic 2, where
    squaring is onto, and g^(d/2) for e = g^d with d even otherwise."""
    ctx = e.ctx
    if ctx.q % 2 == 0:
        return e ** (ctx.q // 2)
    if e.is_zero():
        return e
    d = e.dlog()
    return ctx.from_exp(d // 2) if d % 2 == 0 else None


def ratfunc_sqrt(x: RatFuncElem):
    """A square root in F_q(t), or None; via factor multiplicities."""
    F = x.ctx
    if x.is_zero():
        return x
    lc_root = ff_sqrt(x.num.lc)
    if lc_root is None:
        return None
    num_r = Poly.const(F.base, lc_root)
    for irr, m in poly_factor(x.num):
        if m % 2:
            return None
        num_r = num_r * irr ** (m // 2)
    den_r = Poly.one(F.base)
    for irr, m in poly_factor(x.den):
        if m % 2:
            return None
        den_r = den_r * irr ** (m // 2)
    root = RatFuncElem(F, num_r, den_r)
    if root * root != x:
        raise SelfCheckFailed("square root failed to re-multiply")
    return root


def _ratfunc_root(f: Poly):
    """A root in F_q(t) of a polynomial with F_q(t) coefficients, or None.

    Linear and (odd q) quadratic cases are closed-form; otherwise a
    rational root search: clear denominators to land in F_q[t][X]; any
    root lam*r/s has monic r dividing the constant and monic s the leading
    coefficient, all enumerable through univariate factorization, and the
    scalars lam of each pair are roots of one polynomial over F_q.
    """
    F: RatFuncCtx = f.ctx
    base = F.base
    if f.degree == 1:
        return -f.coeff(0) / f.coeff(1)
    if f.degree == 2 and base.q % 2:  # the usual formula
        a, b, c = f.coeff(2), f.coeff(1), f.coeff(0)
        s = ratfunc_sqrt(b * b - F.from_int(4) * a * c)
        return None if s is None else (-b + s) * (F.from_int(2) * a).inverse()
    if f.coeff(0).is_zero():
        return F.zero()
    den_lcm = Poly.one(base)
    for c in f.coeffs:
        den_lcm = (den_lcm * c.den) // den_lcm.gcd(c.den)
    ints = [c.num * (den_lcm // c.den) for c in f.coeffs]  # in F_q[t]
    content = Poly.zero(base)
    for p in ints:
        content = content.gcd(p)
    if content.degree >= 1:
        ints = [p // content for p in ints]

    def monic_divisors(p: Poly):
        if p.is_const():
            return [Poly.one(base)]
        facs = poly_factor(p)
        count = 1
        for _, mult in facs:
            count *= mult + 1
        if count > MAX_DIVISOR_CANDIDATES:
            raise DegreeTooLarge(
                f"{count} divisor candidates in root search")
        divs = [Poly.one(base)]
        for irr, mult in facs:
            divs = [d * irr ** e for d in divs for e in range(mult + 1)]
        return divs

    nums, dens = monic_divisors(ints[0]), monic_divisors(ints[-1])
    for r in nums:
        for s in dens:
            for lam in _scalar_roots([a * r ** i * s ** (f.degree - i)
                                      for i, a in enumerate(ints)]):
                cand = RatFuncElem(F, r.scale(lam), s)
                if f.eval(cand).is_zero():
                    return cand
    return None


def _scalar_roots(terms: list[Poly]) -> list:
    """The lam in F_q^x with sum lam^i terms[i] = 0 in F_q[t], in dlog order.

    Each t-coefficient of the sum is a polynomial in lam, so the lam are
    the roots of their gcd, read off its linear factors; terms[0] != 0
    keeps lam = 0 out."""
    base = terms[0].ctx
    g = Poly.zero(base)
    for j in range(max(p.degree for p in terms) + 1):
        g = g.gcd(Poly(base, [p.coeff(j) for p in terms]))
    return sorted((-irr.coeff(0) for irr, _ in poly_factor(g)
                   if irr.degree == 1), key=lambda lam: lam.dlog())


def monic_irreducible_factors(f: Poly) -> list[tuple[Poly, int]]:
    """(monic irreducible, multiplicity) pairs with product = f/lc(f)."""
    ctx = f.ctx
    if isinstance(ctx, FiniteFieldCtx):
        return poly_factor(f)
    # coefficient field F_q(t): peel off linear factors from roots; what
    # remains of degree <= 3 without a root is irreducible, and a larger
    # remainder splits off its repeated part via gcd with the derivative
    out: dict = {}

    def record(irr: Poly, mult: int):
        out[irr] = out.get(irr, 0) + mult

    def run(g: Poly):
        while g.degree >= 1:
            r = _ratfunc_root(g)
            if r is None:
                break
            lin = Poly(ctx, [-r, ctx.one()])
            mult, g = g.strip(lin)
            record(lin, mult)
        if g.degree < 1:
            return
        if g.degree <= MAX_ROOT_SEARCH_DEGREE:
            record(g, 1)
            return
        der = g.derivative()
        if not der.is_zero():
            s = g.gcd(der)
            if 1 <= s.degree < g.degree:
                run(g // s)
                run(s)
                return
        raise DegreeTooLarge(f"cannot factor degree {g.degree} over {ctx!r}")

    run(f.monic())
    res = sorted(out.items(), key=lambda pm: (pm[0].degree,
                                               pm[0].serialize(ctx.var)))
    check = Poly.one(ctx)
    for irr, m in res:
        check = check * irr ** m
    if check != f.monic():
        raise SelfCheckFailed("factorization failed to re-multiply")
    return res


def irreducible_by_specialization(f: Poly) -> bool:
    """Certify irreducibility over F_q(t) by specializing t into F_{q^j}.

    An irreducible specialization of a monic polynomial (at a point where
    no coefficient denominator vanishes) forces irreducibility over
    F_q(t); a reducible one proves nothing, so False means "no
    certificate found", not "reducible".  A subfield point is tried only
    at its own level: reducible there, it stays reducible further up.
    """
    ctx: RatFuncCtx = f.ctx
    if not f.is_monic():
        f = f.monic()
    for big, emb, t0 in _extension_points(ctx.base):
        spec = []
        for c in f.coeffs:
            d = c.den.map_coeffs(emb, big).eval(t0)
            if d.is_zero():
                break
            n = c.num.map_coeffs(emb, big).eval(t0)
            spec.append(n * d.inverse())
        else:
            fb = Poly(big, spec)
            if fb.degree == f.degree and is_irreducible(fb):
                return True
    return False


def irreducible_over(f: Poly) -> bool:
    ctx = f.ctx
    if isinstance(ctx, FiniteFieldCtx):
        return is_irreducible(f)
    try:
        facs = monic_irreducible_factors(f)
    except DegreeTooLarge:
        # beyond the root search: a certificate by specialization may
        # still settle it; without one we stay honest and re-raise
        if irreducible_by_specialization(f):
            return True
        raise
    return len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree == f.degree


# --------------------------------------------------------------------------
# places and the per-place tame symbol
# --------------------------------------------------------------------------


class Place:
    """A finite place of F = k(X) or, for poly None, the place at infinity.

    A finite place is a monic irreducible polynomial over k.  Irreducibility
    is decided once, where the polynomial enters: support() builds places
    from the factors it has just computed, and norm() asks the QuotCtx of
    its pi, which decides once.
    """

    __slots__ = ("F", "poly")

    def __init__(self, F: RatFuncCtx, poly: Poly | None):
        if poly is not None and not poly.is_monic():
            raise NotMonic("finite places need monic polynomials")
        self.F = F
        self.poly = poly

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinite else self.poly.degree

    def residue_ctx(self):
        """kappa(P): the coefficient field at infinity, F[X]/(P) otherwise."""
        if self.is_infinite:
            return self.F.base
        return QuotCtx(self.F.base, self.poly)

    def key(self):
        return "inf" if self.is_infinite else self.poly.serialize(self.F.var)

    def __eq__(self, other):
        return isinstance(other, Place) and self.F == other.F \
            and self.poly == other.poly

    def __hash__(self):
        return hash(("place", self.poly))

    def __repr__(self):
        return f"Place({self.key()})"

    # -- valuation / residue ----------------------------------------------

    def _is_pi(self, x: RatFuncElem) -> bool:
        return x.den.is_one() and x.num == self.poly

    def valuation(self, x: RatFuncElem) -> int:
        if x.is_zero():
            raise ZeroElement("zero has no valuation")
        if self.is_infinite:
            return x.den.degree - x.num.degree
        if self._is_pi(x):
            return 1  # the uniformizer itself: no division needed
        return x.num.strip(self.poly)[0] - x.den.strip(self.poly)[0]

    def uniformizer(self) -> RatFuncElem:
        F = self.F
        if self.is_infinite:
            return RatFuncElem(F, Poly.one(F.base), Poly.x(F.base))
        return F.from_poly(self.poly)

    def residue(self, x: RatFuncElem):
        """Image of a valuation-0 element in kappa(P)."""
        if self.valuation(x) != 0:
            raise NotAUnit("residue needs a place-unit")
        if self.is_infinite:  # den is monic and of num's degree
            return x.num.lc
        k = self.residue_ctx()
        return k.from_poly(x.num) * k.from_poly(x.den).inverse()

    def minus_one(self) -> RatFuncElem:
        return self.F.minus_one()

    def split(self, x: RatFuncElem):
        """(v(x), u) with x = u * pi^v(x) and u a unit at this place.  At a
        finite place the powers of pi come off num and den in the
        valuation's own division chain."""
        if x.is_zero():
            raise ZeroElement("zero has no valuation")
        if self._is_pi(x):
            return 1, self.F.one()
        if self.is_infinite:  # pi = 1/X: X^|k| moves across the fraction
            k = self.valuation(x)
            shift = Poly.x(self.F.base) ** abs(k)
            num, den = (x.num * shift, x.den) if k > 0 else (x.num, x.den * shift)
        else:
            a, num = x.num.strip(self.poly)
            b, den = x.den.strip(self.poly)
            k = a - b
        return (0, x) if k == 0 else (k, RatFuncElem(self.F, num, den))


def support(x: RatFuncElem) -> list[Place]:
    """All finite places where x has nonzero valuation.

    num and den are coprime, so their monic irreducible factors are
    distinct and each has nonzero valuation.
    """
    return [Place(x.ctx, irr) for p in (x.num, x.den) if not p.is_const()
            for irr, _ in monic_irreducible_factors(p)]


def tame_at(place: Place, a: MilnorClass) -> MilnorClass:
    """Tame symbol of a class over F at one place: degree drops by one.

    The rewrite is symbols.tame_rewrite, shared with localk.tame; the
    residues of each {pi,u_2,...,u_n} tail form the image.  A tail with a
    residue 1 is dropped, since the symbol is then trivial.
    """
    kctx = place.residue_ctx()
    pi_terms, _ = tame_rewrite(place, a)
    out = []
    for c, ent in pi_terms:
        res = [place.residue(e) for e in ent[1:]]
        if not any(r.is_one() for r in res):
            out.append((c, res))
    return MilnorClass(kctx, a.degree - 1, out)
