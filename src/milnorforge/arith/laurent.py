"""Truncated Laurent series over a finite field.

A nonzero element is t^val * (c0 + c1 t + ... + c_{N-1} t^{N-1}) with
c0 != 0 and N = prec the relative precision.  The unit is stored as the
tuple of exactly N integer encodings of c0, ..., c_{N-1} (the digits
d_0 + d_1 p + ... of each coefficient's representing polynomial, the
numbers serialize() prints and an FFElement stores), so key() is the
stored tuple.  The public constructor and constant() take FFElements and
keep their encodings, and LocalFieldCtx.residue wraps one.  Zeros and
precision follow the model shared with p-adic numbers
(localnum.LocalNumber); this class keeps the digit arithmetic on encoding
vectors.

All of it runs on the encoding kernels of FiniteFieldCtx: add_vec and
neg_vec for sums and negation, inv_enc for a leading coefficient, and
mul_trunc, the package's one product kernel, for products truncated at
the precision: over F_2 to F_11 products whose coefficients fit a byte
take one integer product of the digit bytes, other short or sparse
products run schoolbook over the sparser factor's nonzero terms, and
dense long ones go through Kronecker substitution.
``inverse`` is a Newton iteration on the same kernel.

Monomials take exact short-cuts.  A unit is a monomial c t^v at a working
precision when its digits after the first are all zero below it
(_monomial, the one test): Teichmuller constants, powers of t and their
products are.  Times a monomial, the other factor's digits are scaled by
c (scale_vec, or kept as they are for c = 1) and the valuations add; the
inverse of c t^v is c^-1 t^-v (one inv_enc), and its k-th power c^k t^vk
(one pow_enc).  None of them goes through mul_trunc, Newton or
square-and-multiply, and all give the digits those would.

Frobenius takes the other powers apart.  In characteristic p, x -> x^p is
additive, so x^(p^j) moves digit i to t^(i p^j) and raises it to the
p^j-th power (_frobenius: no product, and no change at all in a prime
field).  A power x^k with k >= p is prod_j Frob^j(x^(k_j)) over the
base-p digits k_j of k.  Each distinct digit's power is square-and-multiply
on x cut to the ceil(prec / p^j) digits that Frob^j reads.  A factor
with j >= 1 is sparse, nonzero only at multiples of p^j, and mul_trunc
picks its product by the count of those terms, not by length.  In
characteristic 2 every digit is 1 and no squaring is left; for k < p,
the large prime fields included, the power is plain square-and-multiply.

serialize() renders the text once and keeps it in ``_text``, which every
constructor, from_encs included, starts at None.  The memo is sound
because no field is assigned after construction: every operation
returns a new series.
"""

from __future__ import annotations

from ..errors import BadInput, NotAUnit
from .finite_field import FFElement, FiniteFieldCtx
from .localnum import LocalNumber
from .poly import _power


class LaurentSeries(LocalNumber):
    __slots__ = ("base", "prec", "val", "coeffs", "zero_prec", "_text")

    def __init__(self, base: FiniteFieldCtx, prec: int, val: int | None, coeffs,
                 zero_prec: int | None = None):
        """coeffs: the FFElement coefficients of t^val, t^(val+1), ..., the
        first nonzero, cut or padded with zeros to prec."""
        self.base = base
        self.prec = prec
        self.val = val
        self._text = None
        if val is None:
            self.coeffs = ()
            self.zero_prec = zero_prec
        else:
            self.zero_prec = None
            encs = tuple(c.enc for c in coeffs)[:prec]
            if not encs or not encs[0]:
                raise BadInput("leading coefficient must be nonzero")
            self.coeffs = encs + (0,) * (prec - len(encs))

    # --- constructors and hooks -------------------------------------------

    @classmethod
    def from_encs(cls, base: FiniteFieldCtx, prec: int, val: int,
                  encs: tuple) -> "LaurentSeries":
        """t^val * sum encs[i] t^i, for a tuple of exactly prec encodings
        with encs[0] != 0.  Unchecked: internal results are built so."""
        x = cls.__new__(cls)
        x.base, x.prec, x.val, x.coeffs = base, prec, val, encs
        x.zero_prec = x._text = None
        return x

    @classmethod
    def zero(cls, base: FiniteFieldCtx, prec: int,
             zero_prec: int | None = None) -> "LaurentSeries":
        return cls(base, prec, None, (), zero_prec)

    @classmethod
    def make(cls, base: FiniteFieldCtx, prec: int, val: int, encs) -> "LaurentSeries":
        """Normalize a raw window of encodings starting at t^val: leading
        zeros raise the valuation, and the rest is cut or padded to prec."""
        for shift, c in enumerate(encs):
            if c:
                encs = tuple(encs[shift:shift + prec])
                return cls.from_encs(base, prec, val + shift,
                                     encs + (0,) * (prec - len(encs)))
        return cls.zero(base, prec)

    @classmethod
    def constant(cls, c: FFElement, prec: int) -> "LaurentSeries":
        if c.is_zero():
            return cls.zero(c.ctx, prec)
        return cls.from_encs(c.ctx, prec, 0, (c.enc,) + (0,) * (prec - 1))

    @classmethod
    def from_int(cls, base: FiniteFieldCtx, prec: int, n: int) -> "LaurentSeries":
        return cls.constant(base.from_int(n), prec)

    def ring(self):
        return self.base

    def zero_like(self, prec: int, zero_prec: int | None) -> "LaurentSeries":
        return LaurentSeries(self.base, prec, None, (), zero_prec)

    def truncate(self, prec: int) -> "LaurentSeries":
        encs = self.coeffs[:prec]
        return LaurentSeries.from_encs(self.base, prec, self.val,
                                       encs + (0,) * (prec - len(encs)))

    # --- queries ----------------------------------------------------------

    def is_one(self) -> bool:
        return self.val == 0 and self.coeffs[0] == 1 and not any(self.coeffs[1:])

    # --- arithmetic -------------------------------------------------------

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.val is None or other.val is None:
            return self._zero_product(other)
        prec = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        if not _monomial(a, prec):
            a, b = b, a
        if _monomial(a, prec):  # c t^v times b: scale b's digits by c
            out = b[:prec]
            if a[0] != 1:
                out = tuple(self.base.scale_vec(out, a[0]))
        else:
            out = tuple(self.base.mul_trunc(a, b, prec))
        return LaurentSeries.from_encs(self.base, prec, self.val + other.val,
                                       out)

    def inverse(self) -> "LaurentSeries":
        """Newton iteration x <- x + x(1 - a x), doubling the correct terms.

        If a x = 1 + t^k r then x + x(1 - a x) = x - t^k x r agrees with x
        below t^k, so each step only appends the next terms, those of -x r.
        A monomial c t^v needs none: its inverse is c^-1 t^-v.
        """
        if self.is_zero():
            raise NotAUnit("zero has no inverse")
        prec, base, a = self.prec, self.base, self.coeffs
        if _monomial(a, prec):
            return LaurentSeries.from_encs(base, prec, -self.val,
                                           (base.inv_enc(a[0]),) + a[1:])
        x = [base.inv_enc(a[0])]
        k = 1
        while k < prec:
            k2 = min(2 * k, prec)
            r = base.mul_trunc(a, x, k2)[k:]
            x.extend(base.neg_vec(base.mul_trunc(x, r, k2 - k)))
            k = k2
        return LaurentSeries.from_encs(base, prec, -self.val, tuple(x))

    def __neg__(self) -> "LaurentSeries":
        if self.is_zero():
            return self
        return LaurentSeries.from_encs(self.base, self.prec, self.val,
                                       tuple(self.base.neg_vec(self.coeffs)))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.val is None or other.val is None:
            return self._zero_sum(other)
        abs_prec = min(self.val + self.prec, other.val + other.prec)
        base_val = min(self.val, other.val)
        length = abs_prec - base_val  # >= 1: each operand has prec >= 1
        a, b = (((0,) * min(x.val - base_val, length) + x.coeffs)[:length]
                for x in (self, other))
        out = self.base.add_vec(a, b)
        for shift, c in enumerate(out):
            if c:
                # relative precision of the sum comes from the shared
                # absolute precision, not from min(operand precs):
                # valuations may differ
                return LaurentSeries.from_encs(self.base, length - shift,
                                               base_val + shift,
                                               tuple(out[shift:]))
        return self.zero_like(min(self.prec, other.prec), abs_prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __pow__(self, k: int) -> "LaurentSeries":
        a = self.coeffs
        if self.val is not None and _monomial(a, self.prec):
            # (c t^v)^k = c^k t^(vk), and c^(q-1) = 1 for k of either sign
            base = self.base
            return LaurentSeries.from_encs(
                base, self.prec, self.val * k,
                (base.pow_enc(a[0], k % (base.q - 1)),) + a[1:])
        if k < 0:
            return self.inverse() ** (-k)
        base, prec = self.base, self.prec
        p = base.p

        def one():
            return LaurentSeries.constant(base.one(), prec)

        if self.val is None or k < p:
            return _power(self, k, one)
        # x^k = prod_j Frob^j(x^(k_j)) over the base-p digits k_j of k;
        # Frob^j only reads the digits of x^(k_j) below ceil(prec / p^j)
        out, powers, j = None, {}, 0
        while k:
            k, d = divmod(k, p)
            if d:
                y = powers.get(d)
                if y is None:
                    y = powers[d] = _power(self.truncate(-(-prec // p ** j)),
                                           d, one)
                factor = _frobenius(y, j, prec)
                out = factor if out is None else out * factor
            j += 1
        return out

    def key(self) -> tuple:
        """(prec, val, the stored encodings): equal exactly when
        serialize() is."""
        return (self.prec, self.val, self.coeffs)

    def serialize(self) -> str:
        text = self._text
        if text is None:
            q = self.base.q
            if self.val is None:
                text = f"laurent({q},{self.prec}):0"
            else:
                digits = ",".join(map(str, self.coeffs))
                text = f"laurent({q},{self.prec}):t^{self.val}*({digits})"
            self._text = text
        return text


def _frobenius(x: LaurentSeries, j: int, prec: int) -> LaurentSeries:
    """x^(p^j) at relative precision prec, for a nonzero x holding at least
    ceil(prec / p^j) digits: Frobenius is additive in characteristic p, so
    digit i moves to t^(i p^j), raised to the p^j-th power (no change in a
    prime field, one pow_enc in an extension), and the valuation becomes
    v p^j.  No product."""
    base = x.base
    p, f = base.p, base.f
    step = p ** j
    digits = x.coeffs[:-(-prec // step)]
    if j % f:  # c^(p^f) = c on F_(p^f), so only j mod f counts
        e = p ** (j % f)
        digits = [base.pow_enc(c, e) if c else 0 for c in digits]
    out = [0] * prec
    out[::step] = digits
    return LaurentSeries.from_encs(base, prec, x.val * step, tuple(out))


def _monomial(coeffs: tuple, n: int) -> bool:
    """Whether a unit's digits after the first are zero below t^n: within
    n digits it is its leading coefficient times a power of t."""
    return not any(coeffs[1:n])
