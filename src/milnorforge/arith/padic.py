"""p-adic numbers at finite precision.

A nonzero value is u * p^val with the unit u known modulo p^prec (prec =
number of significant p-adic digits).  Zeros and precision follow the
model shared with Laurent series (localnum.LocalNumber); this class keeps
the digit arithmetic on the integer unit.  A product, inverse or power
is one integer operation mod p^prec whatever the digits of the unit, so
the monomial short-cuts of Laurent series have no counterpart here.

serialize() renders the text once and keeps it in ``_text``, which the
constructor starts at None.  The memo is sound because no field is
assigned after construction: every operation returns a new number.
"""

from __future__ import annotations

from ..errors import NotAUnit
from .localnum import LocalNumber


class PadicNumber(LocalNumber):
    __slots__ = ("p", "prec", "val", "unit", "zero_prec", "_text")

    def __init__(self, p: int, prec: int, val: int | None, unit: int,
                 zero_prec: int | None = None):
        self.p = p
        self.prec = prec
        self._text = None
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

    # --- constructors and hooks -------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int, zero_prec: int | None = None) -> "PadicNumber":
        return cls(p, prec, None, 0, zero_prec)

    @classmethod
    def from_int(cls, p: int, prec: int, n: int) -> "PadicNumber":
        if n == 0:
            return cls.zero(p, prec)
        val = 0
        while n % p == 0:
            n //= p
            val += 1
        return cls(p, prec, val, n)

    def ring(self):
        return ("padic", self.p)

    def zero_like(self, prec: int, zero_prec: int | None) -> "PadicNumber":
        return PadicNumber(self.p, prec, None, 0, zero_prec)

    def truncate(self, prec: int) -> "PadicNumber":
        return PadicNumber(self.p, prec, self.val, self.unit)

    # --- queries ----------------------------------------------------------

    def is_one(self) -> bool:
        return self.val == 0 and self.unit == 1

    @property
    def modulus(self) -> int:
        return self.p ** self.prec

    # --- arithmetic -------------------------------------------------------

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        if self.val is None or other.val is None:
            return self._zero_product(other)
        return PadicNumber(self.p, min(self.prec, other.prec),
                           self.val + other.val, self.unit * other.unit)

    def inverse(self) -> "PadicNumber":
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        inv = pow(self.unit, -1, self.modulus)
        return PadicNumber(self.p, self.prec, -self.val, inv)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero():
            return self
        return PadicNumber(self.p, self.prec, self.val, self.modulus - self.unit)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        if self.val is None or other.val is None:
            return self._zero_sum(other)
        p = self.p
        abs_prec = min(self.val + self.prec, other.val + other.prec)
        base = min(self.val, other.val)
        if abs_prec <= base:
            return self.zero_like(min(self.prec, other.prec), abs_prec)
        mod = p ** (abs_prec - base)
        total = (self.unit * p ** (self.val - base)
                 + other.unit * p ** (other.val - base)) % mod
        if total == 0:
            return self.zero_like(min(self.prec, other.prec), abs_prec)
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
            return PadicNumber(self.p, self.prec, 0, 1) if k == 0 \
                else self._zero_power(k)
        return PadicNumber(self.p, self.prec, self.val * k,
                           pow(self.unit, k, self.modulus))

    def key(self) -> tuple:
        """(prec, val, unit): equal exactly when serialize() is."""
        return (self.prec, self.val, self.unit)

    def serialize(self) -> str:
        text = self._text
        if text is None:
            text = self._text = (
                f"padic({self.p},{self.prec}):0" if self.val is None
                else f"padic({self.p},{self.prec}):{self.unit}*p^{self.val}")
        return text
