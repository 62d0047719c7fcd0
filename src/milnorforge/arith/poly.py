"""Univariate polynomials over an arbitrary exact coefficient field.

This single class serves polynomials over finite fields, over rational
function fields, over quotient fields and, for the base change of the
ring A(t), over Z_p and F_q[[t]], which keeps gcds and resultants uniform
across the package.  It
has two stored forms, chosen by the context's ``encoded`` flag:

* over a finite field (FiniteFieldCtx) the coefficients are int encodings
  c0 + c1 p + ..., the numbers an FFElement stores, and the ring
  operations run on the field's encoding kernels (add_vec, mul_trunc,
  divmod_vec, gcd_vec, ...).  The constructor takes FFElements and keeps
  their encodings; coeff(), lc and eval() wrap an encoding back in one.
  The rest is written once for every field.  A polynomial hashes from its
  field and its encodings;
* over any other context the coefficients are the context's elements,
  which need +, -, *, inverse(), is_zero(), is_one() and a hash that agrees
  with their ==, and the context needs zero()/one() factories.  Their
  approximate zeros (a finite ``zero_prec``) are kept, never stripped.

``_power`` is the package's one square-and-multiply: the powers of
polynomials (also mod a polynomial), of Laurent series, of quotient-field
elements and of finite-field encodings all go through it.  ``Poly.strip``
is the one loop that peels powers of a divisor: valuations at places and
factor multiplicities.
"""

from __future__ import annotations

import operator

from ..errors import BadInput, ZeroPolynomial


def _power(x, k: int, one, mul=operator.mul):
    """x^k for k >= 0 under the product ``mul``, left to right, so x ** 1
    costs no product; ``one()`` builds the identity, only for k = 0."""
    if k == 0:
        return one()
    res = x
    for bit in bin(k)[3:]:
        res = mul(res, res)
        if bit == "1":
            res = mul(res, x)
    return res


def _exact_zero(c) -> bool:
    """Exact zero test: approximate zeros (finite ``zero_prec``) still carry
    an unknown tail and must not be skipped or stripped."""
    return c.is_zero() and getattr(c, "zero_prec", None) is None


class Poly:
    """Coefficients stored low-degree first, no trailing zeros; () is zero.
    They are int encodings over a finite field and the context's elements
    otherwise (see the module docstring)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        if ctx.encoded:  # FFElements in, their encodings stored
            coeffs = [c.enc for c in coeffs]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        else:
            # Approximate zeros (inexact coefficients known to vanish only
            # up to a finite precision, marked by a non-None ``zero_prec``)
            # must be retained: dropping one would silently promote it to
            # an exact zero.
            while coeffs and _exact_zero(coeffs[-1]):
                coeffs = coeffs[:-1]
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_encs(cls, ctx, encs) -> "Poly":
        """sum encs[i] X^i over a finite field, from a list or tuple of int
        encodings; trailing zeros are dropped."""
        if encs and not encs[-1]:
            encs = list(encs)
            while encs and not encs[-1]:
                encs.pop()
        x = cls.__new__(cls)
        x.ctx = ctx
        x.coeffs = tuple(encs)
        return x

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def const(cls, ctx, c) -> "Poly":
        return cls(ctx, (c,))

    @classmethod
    def one(cls, ctx) -> "Poly":
        return cls(ctx, (ctx.one(),))

    @classmethod
    def x(cls, ctx) -> "Poly":
        return cls(ctx, (ctx.zero(), ctx.one()))

    @classmethod
    def from_ints(cls, ctx, ints) -> "Poly":
        """Integer coefficients, embedded through the prime subfield."""
        return cls(ctx, [ctx.from_int(n) for n in ints])

    # --- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        if self.ctx.encoded:
            return self.coeffs == (1,)
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        if self.ctx.encoded:
            return self.ctx.from_enc(self.coeffs[-1])
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        if self.ctx.encoded:
            return bool(self.coeffs) and self.coeffs[-1] == 1
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def coeff(self, i: int):
        ctx = self.ctx
        if 0 <= i < len(self.coeffs):
            return ctx.from_enc(self.coeffs[i]) if ctx.encoded else self.coeffs[i]
        return ctx.zero()

    # --- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        ctx = self.ctx
        if ctx.encoded:
            return Poly.from_encs(ctx, ctx.add_vec(a, b) + list(a[len(b):]))
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        if ctx.encoded:
            return Poly.from_encs(ctx, ctx.neg_vec(self.coeffs))
        return Poly(ctx, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        if not self.coeffs or not other.coeffs:
            return Poly.zero(ctx)
        if ctx.encoded:
            a, b = self.coeffs, other.coeffs
            return Poly.from_encs(ctx, ctx.mul_trunc(a, b,
                                                     len(a) + len(b) - 1))
        zero = ctx.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _exact_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not _exact_zero(b):
                    out[i + j] = out[i + j] + a * b
        return Poly(ctx, out)

    def scale(self, c) -> "Poly":
        ctx = self.ctx
        if ctx.encoded:
            return Poly.from_encs(ctx, ctx.scale_vec(self.coeffs, c.enc))
        return Poly(ctx, [a * c for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.monic_with(Poly.zero(self.ctx))[0]

    def monic_with(self, other: "Poly"):
        """(self / lc(self), other / lc(self)) for nonzero self: a fraction
        other/self rewritten over a monic denominator."""
        inv = self.lc.inverse()
        return self.scale(inv), other.scale(inv)

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        ctx = self.ctx
        if len(self.coeffs) < len(other.coeffs):
            return Poly.zero(ctx), self
        if ctx.encoded:
            quot, rem = ctx.divmod_vec(self.coeffs, other.coeffs)
            return Poly.from_encs(ctx, quot), Poly.from_encs(ctx, rem)
        inv_lc = other.lc.inverse()
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [ctx.zero()] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[other.degree + i] * inv_lc
            quot[i] = c
            if not _exact_zero(c):
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return Poly(ctx, quot), Poly(ctx, rem[: other.degree])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def strip(self, d: "Poly"):
        """(v, self / d^v) for the largest power d^v dividing self, by
        repeated division until a remainder is nonzero."""
        if self.is_zero():
            raise ZeroPolynomial("every power divides the zero polynomial")
        if d.degree < 1:
            raise BadInput(f"cannot strip a divisor of degree {d.degree}")
        v, p = 0, self
        while True:
            q, r = divmod(p, d)
            if not r.is_zero():
                return v, p
            v, p = v + 1, q

    def __pow__(self, k: int) -> "Poly":
        return _power(self, k, lambda: Poly.one(self.ctx))

    def pow_mod(self, k: int, mod: "Poly") -> "Poly":
        return _power(self % mod, k, lambda: Poly.one(self.ctx),
                      lambda a, b: a * b % mod)

    def derivative(self) -> "Poly":
        ctx = self.ctx
        if ctx.encoded:  # i * c is (i mod p) * c
            p = ctx.p
            return Poly.from_encs(ctx, [ctx.mul_enc(c, i % p) for i, c
                                        in enumerate(self.coeffs[1:], 1)])
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            acc = ctx.zero()
            for _ in range(i):  # i * c without assuming an int action
                acc = acc + c
            out.append(acc)
        return Poly(ctx, out)

    def eval(self, x):
        ctx = self.ctx
        if ctx.encoded:
            return ctx.from_enc(ctx.eval_enc(self.coeffs, x.enc))
        acc = ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, new_ctx=None) -> "Poly":
        """fn applied to every coefficient as an element (an FFElement over
        a finite field)."""
        return Poly(new_ctx or self.ctx,
                    [fn(self.coeff(i)) for i in range(len(self.coeffs))])

    # --- gcd / resultant --------------------------------------------------

    def gcd(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        if ctx.encoded:
            return Poly.from_encs(ctx, ctx.gcd_vec(self.coeffs, other.coeffs))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other: "Poly"):
        """Return (g, s, t) with s*self + t*other = g, g monic (or zero)."""
        ctx = self.ctx
        a, b = self, other
        sa, sb = Poly.one(ctx), Poly.zero(ctx)
        ta, tb = Poly.zero(ctx), Poly.one(ctx)
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            sa, sb = sb, sa - q * sb
            ta, tb = tb, ta - q * tb
        if a.is_zero():
            return a, sa, ta
        inv = a.lc.inverse()
        return a.scale(inv), sa.scale(inv), ta.scale(inv)

    def resultant(self, other: "Poly"):
        """Res(self, other) as a coefficient-field element (Euclidean)."""
        ctx = self.ctx
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return ctx.zero()
        res = ctx.one()
        while True:
            if b.degree == 0:
                return res * b.lc ** a.degree  # Res(a, c) = c^deg(a)
            r = a % b
            if r.is_zero():
                if a.degree == 0:
                    return res * a.lc ** b.degree
                return ctx.zero()
            # Res(a,b) = (-1)^{da db} lc(b)^{da - dr} Res(b, r)
            res = res * b.lc ** (a.degree - r.degree)
            if a.degree * b.degree % 2:
                res = -res
            a, b = b, r

    # --- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly) or self.coeffs != other.coeffs:
            return False
        # an encoding names an element only together with its field
        return (not (self.ctx.encoded or other.ctx.encoded)
                or self.ctx == other.ctx)

    def __hash__(self):
        if self.ctx.encoded:  # the field and the encodings
            return hash((self.ctx.q, self.coeffs))
        # from the coefficients' own hashes, which agree with their ==
        return hash(self.coeffs)

    def serialize(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs)):
            c = self.coeff(i)
            if c.is_zero():
                continue
            cs = c.serialize() if hasattr(c, "serialize") else str(c)
            if i == 0:
                parts.append(cs)
            else:
                parts.append(f"{cs}*{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.serialize()})"
