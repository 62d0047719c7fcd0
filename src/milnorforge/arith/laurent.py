"""Truncated Laurent series over a finite field.

A nonzero element is t^val * (c0 + c1 t + ... + c_{N-1} t^{N-1}) with
c0 != 0 and N the relative precision.  Zeros and precision follow the
model shared with p-adic numbers (localnum.LocalNumber); this class keeps
the digit arithmetic on coefficient vectors.

Products and inverses go through one kernel, ``FiniteFieldCtx.mul_trunc``
(Kronecker substitution; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symb. Comput. 44, 2009).  It writes
the F_p digits of each coefficient of t^i into w-bit slots i*(2f-1) .. of
one integer, multiplies two such integers once, and reads the product's
slots back.  2f-1 slots per t-degree leave room for every X-degree of a
product of two digit vectors, and w is the bit length of
min(len a, len b, n) * f * (p-1)^2: a slot of the product is a sum of at
most that many nonnegative digit products, so it never carries into the
next.  Each slot is then reduced mod p and each t-coefficient mod the field
modulus.  ``inverse`` is a Newton iteration on the same kernel.
"""

from __future__ import annotations

from ..errors import BadInput, NotAUnit
from .finite_field import FFElement, FiniteFieldCtx
from .localnum import LocalNumber
from .poly import _power


class LaurentSeries(LocalNumber):
    __slots__ = ("base", "prec", "val", "coeffs", "zero_prec")

    def __init__(self, base: FiniteFieldCtx, prec: int, val: int | None, coeffs,
                 zero_prec: int | None = None):
        self.base = base
        self.prec = prec
        if val is None:
            self.val = None
            self.coeffs = ()
            self.zero_prec = zero_prec
        else:
            self.zero_prec = None
            coeffs = tuple(coeffs)
            if not coeffs or coeffs[0].e is None:
                raise BadInput("leading coefficient must be nonzero")
            self.val = val
            self.coeffs = coeffs[:prec]

    # --- constructors and hooks -------------------------------------------

    @classmethod
    def zero(cls, base: FiniteFieldCtx, prec: int,
             zero_prec: int | None = None) -> "LaurentSeries":
        return cls(base, prec, None, (), zero_prec)

    @classmethod
    def make(cls, base: FiniteFieldCtx, prec: int, val: int, coeffs) -> "LaurentSeries":
        """Normalize a raw coefficient window starting at t^val."""
        coeffs = list(coeffs)
        shift = 0
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            shift += 1
        if not coeffs:
            return cls.zero(base, prec)
        return cls(base, prec, val + shift, coeffs)

    @classmethod
    def constant(cls, c: FFElement, prec: int) -> "LaurentSeries":
        if c.is_zero():
            return cls.zero(c.ctx, prec)
        pad = [c.ctx.zero()] * (prec - 1)
        return cls(c.ctx, prec, 0, [c] + pad)

    @classmethod
    def from_int(cls, base: FiniteFieldCtx, prec: int, n: int) -> "LaurentSeries":
        return cls.constant(base.from_int(n), prec)

    def ring(self):
        return self.base

    def zero_like(self, prec: int, zero_prec: int | None) -> "LaurentSeries":
        return LaurentSeries(self.base, prec, None, (), zero_prec)

    def truncate(self, prec: int) -> "LaurentSeries":
        return LaurentSeries(self.base, prec, self.val, self.coeffs)

    def coeff_window(self, length: int):
        """Coefficients of t^val .. t^(val+length-1), padded with zeros."""
        zero = self.base.zero()
        out = list(self.coeffs[:length])
        out.extend([zero] * (length - len(out)))
        return out

    # --- queries ----------------------------------------------------------

    def is_one(self) -> bool:
        return (self.val == 0 and self.coeffs[0].is_one()
                and all(c.is_zero() for c in self.coeffs[1:]))

    # --- arithmetic -------------------------------------------------------

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.val is None or other.val is None:
            return self._zero_product(other)
        prec = min(self.prec, other.prec)
        out = self.base.mul_trunc(self.coeffs, other.coeffs, prec)
        return LaurentSeries(self.base, prec, self.val + other.val, out)

    def inverse(self) -> "LaurentSeries":
        """Newton iteration x <- x + x(1 - a x), doubling the correct terms.

        If a x = 1 + t^k r then x + x(1 - a x) = x - t^k x r agrees with x
        below t^k, so each step only appends the next terms, those of -x r.
        """
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        prec, base = self.prec, self.base
        a = self.coeff_window(prec)
        x = [self.coeffs[0].inverse()]
        k = 1
        while k < prec:
            k2 = min(2 * k, prec)
            r = base.mul_trunc(a, x, k2)[k:]
            x.extend(-c for c in base.mul_trunc(x, r, k2 - k))
            k = k2
        return LaurentSeries(base, prec, -self.val, x)

    def __neg__(self) -> "LaurentSeries":
        if self.is_zero():
            return self
        return LaurentSeries(self.base, self.prec, self.val,
                             [-c for c in self.coeffs])

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.val is None or other.val is None:
            return self._zero_sum(other)
        prec = min(self.prec, other.prec)
        abs_prec = min(self.val + self.prec, other.val + other.prec)
        base_val = min(self.val, other.val)
        length = abs_prec - base_val
        if length <= 0:
            return self.zero_like(prec, abs_prec)
        zero = self.base.zero()
        out = [zero] * length
        for src in (self, other):
            off = src.val - base_val
            for i, c in enumerate(src.coeffs):
                if off + i < length:
                    out[off + i] = out[off + i] + c
        # relative precision of the sum comes from the shared absolute
        # precision, not from min(operand precs): valuations may differ
        summed = LaurentSeries.make(self.base, length, base_val, out)
        if summed.is_zero():
            return self.zero_like(prec, abs_prec)
        rel = abs_prec - summed.val
        return summed if rel >= summed.prec else summed.truncate(rel)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __pow__(self, k: int) -> "LaurentSeries":
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, lambda: LaurentSeries.constant(
            self.base.one(), self.prec))

    def key(self) -> tuple:
        """(prec, val, coefficient exponents padded with None to prec):
        equal exactly when serialize() is."""
        exps = tuple(c.e for c in self.coeffs)
        return (self.prec, self.val, exps + (None,) * (self.prec - len(exps)))

    def serialize(self) -> str:
        q = self.base.q
        if self.is_zero():
            return f"laurent({q},{self.prec}):0"
        digits = ",".join(str(c.enc) for c in self.coeff_window(self.prec))
        return f"laurent({q},{self.prec}):t^{self.val}*({digits})"
