"""Univariate polynomials over an arbitrary exact coefficient field.

The coefficient context only needs zero()/one() factories and elements with
+, -, *, inverse(), is_zero(), is_one() and a hash that agrees with their
==.  This single class serves polynomials over finite fields, over rational
function fields and over quotient fields, and the Hensel path over Z_p and
F_q[[t]], which keeps gcds and resultants uniform across the package.

``_power`` is the package's one square-and-multiply: the powers of
polynomials (also mod a polynomial), of Laurent series, of quotient-field
elements and of finite-field encodings, and the three powers inside
``Poly.resultant``, all go through it.  ``Poly.strip`` is the one loop that
peels powers of a divisor: valuations at places and factor multiplicities.
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
    """Coefficients stored low-degree first, no trailing zeros; () is zero."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        # Approximate zeros (inexact coefficients known to vanish only up to
        # a finite precision, marked by a non-None ``zero_prec``) must be
        # retained: dropping one would silently promote it to an exact zero.
        while coeffs and _exact_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # --- constructors ----------------------------------------------------

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
        return cls(ctx, [ctx.from_int(n) for n in ints])

    # --- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero()

    # --- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ctx, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        zero = self.ctx.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _exact_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not _exact_zero(b):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    def scale(self, c) -> "Poly":
        return Poly(self.ctx, [a * c for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.lc.inverse())

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        if self.degree < other.degree:
            return Poly.zero(self.ctx), self
        inv_lc = other.lc.inverse()
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [self.ctx.zero()] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[other.degree + i] * inv_lc
            quot[i] = c
            if not _exact_zero(c):
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return Poly(self.ctx, quot), Poly(self.ctx, rem[: other.degree])

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
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            acc = self.ctx.zero()
            for _ in range(i):  # i * c without assuming an int action
                acc = acc + c
            out.append(acc)
        return Poly(self.ctx, out)

    def eval(self, x):
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, new_ctx=None) -> "Poly":
        return Poly(new_ctx or self.ctx, [fn(c) for c in self.coeffs])

    # --- gcd / resultant --------------------------------------------------

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def xgcd(self, other: "Poly"):
        """Return (g, s, t) with s*self + t*other = g, g monic (or zero)."""
        a, b = self, other
        sa, sb = Poly.one(self.ctx), Poly.zero(self.ctx)
        ta, tb = Poly.zero(self.ctx), Poly.one(self.ctx)
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            sa, sb = sb, sa - q * sb
            ta, tb = tb, ta - q * tb
        if a.is_zero():
            return a, sa, ta
        inv = a.lc.inverse()
        cinv = Poly.const(self.ctx, inv)
        return a.scale(inv), sa * cinv, ta * cinv

    def resultant(self, other: "Poly"):
        """Res(self, other) as a coefficient-field element (Euclidean)."""
        ctx = self.ctx
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return ctx.zero()
        res = ctx.one()
        while True:
            if b.degree == 0:
                # Res(a, c) = c^deg(a)
                return res * _power(b.coeffs[0], a.degree, ctx.one)
            r = a % b
            if r.is_zero():
                if a.degree == 0:
                    return res * _power(a.coeffs[0], b.degree, ctx.one)
                return ctx.zero()
            # Res(a,b) = (-1)^{da db} lc(b)^{da - dr} Res(b, r)
            res = res * _power(b.lc, a.degree - r.degree, ctx.one)
            if a.degree * b.degree % 2:
                res = -res
            a, b = b, r

    # --- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        # from the coefficients' own hashes, which agree with their ==
        return hash(self.coeffs)

    def serialize(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
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
