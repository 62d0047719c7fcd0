"""The precision model shared by p-adic numbers and Laurent series.

Z_p and F_q[[t]] are complete discrete valuation rings whose elements are
known to finitely many uniformizer-adic digits.  A nonzero value is
u * pi^val with the unit u known to ``prec`` digits: digits at positions
>= val + prec (the absolute precision) are unknown.  Zero is a marker,
never a (valuation, unit) pair.  A sum that cancels below the available
absolute precision is an *approximate* zero that remembers up to which
absolute precision its digits are known to vanish (``zero_prec``; None for
an exact zero), so that adding it to another number cannot claim digits
the sum never knew (Caruso, "Computations with p-adic numbers",
arXiv:1701.06794).

LocalNumber owns these rules: products and sums with an exact or
approximate zero, equality and hashing.  A subclass keeps its digit
arithmetic (the nonzero branches of +, * and the inverse, negation and
powers, the hot paths) and four hooks: ring(), a hashable name of the
ring; zero_like(prec, zero_prec), a zero of the same ring; truncate(prec),
the same nonzero value cut (or padded with zero digits) to prec digits;
key(), an exact hashable digit tuple, equal for two elements of one ring
exactly when their serialize() strings are.  Both subclasses store their
digits in that form, (prec, val, unit) and (prec, val, the prec
coefficient encodings), so key() builds nothing, and == compares keys
when both sides are nonzero with equal valuation and precision: there
the difference is zero exactly when the stored digits agree.

Elements are immutable: no field is assigned after construction, and
every operation returns a new element.  Each subclass relies on that to
memoize serialize() in a ``_text`` slot that every constructor starts at
None, so an element is rendered at most once however often its text is
read: MilnorClass, the formal sum the certificate replay books into,
merges terms by these texts (where __hash__ would put every entry in one
bucket).  Laurent series also take exact
short-cuts for monomials c t^v in products, inverses and powers
(laurent.py); a p-adic product is one integer product either way.
"""

from __future__ import annotations


class LocalNumber:
    """Base class; subclasses define the slots prec, val and zero_prec."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return self.val is None

    def _zero_product(self, other):
        """self * other when a factor is zero.  An exact zero annihilates;
        an approximate zero (valuation >= zero_prec) shifts its bound by
        the other factor's valuation, or by the other bound."""
        prec = min(self.prec, other.prec)
        if (self.val is None and self.zero_prec is None) or \
           (other.val is None and other.zero_prec is None):
            return self.zero_like(prec, None)
        if self.val is None and other.val is None:
            return self.zero_like(prec, self.zero_prec + other.zero_prec)
        z, x = (self, other) if self.val is None else (other, self)
        return self.zero_like(prec, z.zero_prec + x.val)

    def _zero_sum(self, other):
        """self + other when a summand is zero.  Two zeros keep the smaller
        bound; an approximate zero known to vanish below pi^zero_prec
        clips the other summand to that absolute precision."""
        prec = min(self.prec, other.prec)
        if self.val is None and other.val is None:
            a, b = self.zero_prec, other.zero_prec
            return self.zero_like(prec, b if a is None else
                                  a if b is None else min(a, b))
        z, x = (self, other) if self.val is None else (other, self)
        if z.zero_prec is None:
            return x.truncate(prec)
        if x.val >= z.zero_prec:
            return self.zero_like(prec, z.zero_prec)
        return x.truncate(min(z.zero_prec - x.val, prec))

    def _zero_power(self, k: int):
        """self ** k for a zero self and k >= 1: the bound scales by k."""
        return self.zero_like(self.prec, None if self.zero_prec is None
                              else self.zero_prec * k)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        """Indistinguishable at the shared working precision.

        This is not transitive, and an approximate zero equals every
        number of valuation at least its bound, so the only hash that
        agrees with it is one value per ring.
        """
        if type(other) is not type(self) or self.ring() != other.ring():
            return False
        if (self.val is not None and self.val == other.val
                and self.prec == other.prec):
            # the difference is the digitwise one at the shared precision
            return self.key() == other.key()
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.ring())

    def __repr__(self):
        return self.serialize()
