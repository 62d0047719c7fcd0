"""p-adic numbers at finite precision.

A nonzero value is u * p^val with the unit u known modulo p^prec (prec =
number of significant p-adic digits).  Zero is a distinguished marker, never
a (valuation, unit) pair.  Sums that cancel below the available absolute
precision collapse to an *approximate* zero that remembers the absolute
precision up to which the digits are known to vanish (``zero_prec``); an
exact zero has ``zero_prec = None``.  Without that bound, a cancelled sum
added to another number would claim digits it never actually knew.
"""

from __future__ import annotations

from ..errors import NotAUnit, ZeroElement


class PadicNumber:
    __slots__ = ("p", "prec", "val", "unit", "zero_prec")

    def __init__(self, p: int, prec: int, val: int | None, unit: int,
                 zero_prec: int | None = None):
        self.p = p
        self.prec = prec
        if val is None:
            self.val = None
            self.unit = 0
            self.zero_prec = zero_prec
        else:
            self.zero_prec = None
            unit %= p ** prec
            if unit % p == 0:
                raise ValueError("unit part must be coprime to p")
            self.val = val
            self.unit = unit

    # --- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int, zero_prec: int | None = None) -> "PadicNumber":
        return cls(p, prec, None, 0, zero_prec)

    def abs_prec(self) -> int | None:
        """Absolute precision: digits at positions >= abs_prec are unknown.

        None means exact (all digits known).
        """
        if self.val is None:
            return self.zero_prec
        return self.val + self.prec

    @classmethod
    def from_int(cls, p: int, prec: int, n: int) -> "PadicNumber":
        if n == 0:
            return cls.zero(p, prec)
        val = 0
        while n % p == 0:
            n //= p
            val += 1
        return cls(p, prec, val, n)

    # --- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.val is None

    def is_unit(self) -> bool:
        return self.val == 0

    def is_one(self) -> bool:
        return self.val == 0 and self.unit == 1

    @property
    def modulus(self) -> int:
        return self.p ** self.prec

    # --- arithmetic -------------------------------------------------------

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        prec = min(self.prec, other.prec)
        if self.is_zero() or other.is_zero():
            # An exact zero annihilates; an approximate zero (valuation
            # >= zero_prec) shifts its bound by the other factor's valuation.
            if (self.is_zero() and self.zero_prec is None) or \
               (other.is_zero() and other.zero_prec is None):
                return PadicNumber.zero(self.p, prec)
            z, x = (self, other) if self.is_zero() else (other, self)
            if x.is_zero():
                bound = (self.zero_prec or 0) + (other.zero_prec or 0)
            else:
                bound = z.zero_prec + x.val
            return PadicNumber.zero(self.p, prec, bound)
        return PadicNumber(self.p, prec, self.val + other.val, self.unit * other.unit)

    def inverse(self) -> "PadicNumber":
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        inv = pow(self.unit, -1, self.modulus)
        return PadicNumber(self.p, self.prec, -self.val, inv)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        return self * other.inverse()

    def __neg__(self) -> "PadicNumber":
        if self.is_zero():
            return self
        return PadicNumber(self.p, self.prec, self.val, self.modulus - self.unit)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        p = self.p
        prec = min(self.prec, other.prec)
        if self.is_zero() or other.is_zero():
            if self.is_zero() and other.is_zero():
                a, b = self.zero_prec, other.zero_prec
                bound = None if a is None and b is None else \
                    min(x for x in (a, b) if x is not None)
                return PadicNumber.zero(p, prec, bound)
            z, x = (self, other) if self.is_zero() else (other, self)
            if z.zero_prec is None:
                return PadicNumber(p, prec, x.val, x.unit)
            # z is only known to vanish up to p^zero_prec: the sum is x
            # clipped to that absolute precision.
            if x.val >= z.zero_prec:
                return PadicNumber.zero(p, prec, z.zero_prec)
            rel = min(z.zero_prec - x.val, prec)
            return PadicNumber(p, rel, x.val, x.unit)
        abs_prec = min(self.val + self.prec, other.val + other.prec)
        base = min(self.val, other.val)
        if abs_prec <= base:
            return PadicNumber.zero(p, prec, abs_prec)
        mod = p ** (abs_prec - base)
        total = (self.unit * p ** (self.val - base)
                 + other.unit * p ** (other.val - base)) % mod
        if total == 0:
            return PadicNumber.zero(p, prec, abs_prec)
        extra = 0
        while total % p == 0:
            total //= p
            extra += 1
        return PadicNumber(p, abs_prec - base - extra, base + extra, total)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __pow__(self, k: int) -> "PadicNumber":
        if k < 0:
            return self.inverse() ** (-k)
        if self.is_zero():
            if k == 0:
                return PadicNumber(self.p, self.prec, 0, 1)
            if self.zero_prec is None:
                return self
            return PadicNumber.zero(self.p, self.prec, self.zero_prec * k)
        return PadicNumber(self.p, self.prec, self.val * k,
                           pow(self.unit, k, self.modulus))

    # --- comparisons ------------------------------------------------------

    def eq(self, other: "PadicNumber") -> bool:
        """Indistinguishable at the shared working precision."""
        return (self - other).is_zero()

    def __eq__(self, other):
        return isinstance(other, PadicNumber) and self.p == other.p and self.eq(other)

    def key(self):
        if self.is_zero():
            return ("padic", self.p, None)
        return ("padic", self.p, self.val, self.unit % self.modulus, self.prec)

    def __hash__(self):
        return hash(self.key())

    def at_precision(self, prec: int) -> "PadicNumber":
        """Truncate (or formally extend) the unit to the given precision."""
        if self.is_zero():
            bound = self.zero_prec if self.zero_prec is None \
                else min(self.zero_prec, prec)
            return PadicNumber.zero(self.p, prec, bound)
        if prec > self.prec:
            raise ZeroElement(f"cannot raise precision {self.prec} -> {prec}")
        return PadicNumber(self.p, prec, self.val, self.unit % self.p ** prec)

    def serialize(self) -> str:
        if self.is_zero():
            return f"padic({self.p},{self.prec}):0"
        return f"padic({self.p},{self.prec}):{self.unit}*p^{self.val}"

    def __repr__(self):
        return self.serialize()
