"""Formal Milnor symbol calculus.

A MilnorClass is a finite integer combination of symbols {x_1,...,x_n}
with nonzero entries from one field context: an element of the free
abelian group on symbols that K^M_n(F) is a quotient of (Milnor 1970).
MilnorClass(ctx, degree, pairs) builds every class, from any iterable of
(coeff, entries) pairs; its terms are SymbolTerm pairs.  No general
equality test is offered: classes are only compared through homomorphic
images (finite field coordinates, residue vectors, pairings).  The moves
that rewrite a class and preserve it (bilinear expansion, swaps, the
{x,-x} and {x,x} identities) are the step vocabulary of divisibility
certificates; they live in the table localk._STEP_KINDS.

tame_rewrite brings a class into generator form at one discrete
valuation.  It is the one engine behind localk.tame and ratfunc.tame_at.

ff_kgroup presents K^M_n of a finite field on one generator: T_n(F_q^x)
is cyclic of order q-1 generated by g x...x g, and each Steinberg pair
g^i + g^j = 1 gives the relation i*j: 0 = {g^i,g^j,g,...,g} = i*j*{g,...,g}.
The gcd of the relations is the order (snf.AbGroupPresentation); for
n >= 2 the first few pairs bring it to 1 (Milnor 1970).  ff_congruent is
the one equality test in K_n(F_q) and its quotients K_n(F_q)/m: the tame
sequence's checks and the Bass-Tate comparisons over F_q both use it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .arith.finite_field import ff_ctx_q
from .errors import (
    BadInput,
    ContextMismatch,
    PatternMismatch,
    ZeroEntry,
)
from .snf import AbGroupPresentation


class SymbolTerm(NamedTuple):
    """One summand coeff * {entries} of a MilnorClass: a (coeff, entries)
    pair whose entries MilnorClass has checked to be nonzero.  Only
    MilnorClass builds one; degree 0 terms are plain integers."""

    coeff: int
    entries: tuple

    @property
    def degree(self) -> int:
        return len(self.entries)

    def serialize(self) -> str:
        body = "{" + ",".join(e.serialize() for e in self.entries) + "}"
        if abs(self.coeff) == 1:
            return body
        return f"{abs(self.coeff)}*{body}"

    def __repr__(self):
        sign = "-" if self.coeff < 0 else ""
        return f"{sign}{self.serialize()}"


class MilnorClass:
    """Normalized formal sum of same-degree symbols over one context: the
    one free abelian group on symbols, which the certificate replay books
    into too.  MilnorClass(ctx, degree, pairs) is its one constructor: it
    takes any iterable of (coeff, entries) pairs, SymbolTerms included,
    and refuses a zero entry in any pair, even one that cancels.  Terms
    merge by their entries' serialize() texts and are kept in the order of
    those texts; a term whose coefficient cancels goes."""

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx, degree: int, pairs):
        merged: dict[tuple, tuple[int, tuple]] = {}
        for c, ent in pairs:
            k = tuple([e.serialize() for e in ent])
            if k in merged:
                # equal texts are equal entries: this pair's were checked
                total, first = merged[k]
                merged[k] = (total + c, first)
                continue
            ent = tuple(ent)
            for e in ent:
                if e.is_zero():
                    raise ZeroEntry("symbol entries must be nonzero")
            if len(ent) != degree:
                raise PatternMismatch(
                    f"a degree-{len(ent)} term in a degree-{degree} class")
            merged[k] = (c, ent)
        self.ctx = ctx
        self.degree = degree
        self.terms = tuple(SymbolTerm(c, ent) for _, (c, ent) in sorted(
            item for item in merged.items() if item[1][0] != 0))

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx, degree: int) -> "MilnorClass":
        return cls(ctx, degree, ())

    def is_zero(self) -> bool:
        return not self.terms

    # --- linear structure -------------------------------------------------

    def __add__(self, other: "MilnorClass") -> "MilnorClass":
        self._check_ctx(other)
        if self.degree != other.degree:
            raise PatternMismatch(
                f"adding a degree-{other.degree} class to a "
                f"degree-{self.degree} class")
        return MilnorClass(self.ctx, self.degree, self.terms + other.terms)

    def __neg__(self) -> "MilnorClass":
        return self.scale(-1)

    def __sub__(self, other: "MilnorClass") -> "MilnorClass":
        return self + (-other)

    def scale(self, c: int) -> "MilnorClass":
        return MilnorClass(self.ctx, self.degree,
                           [(c * t.coeff, t.entries) for t in self.terms])

    def _check_ctx(self, other: "MilnorClass"):
        if self.ctx != other.ctx:
            raise ContextMismatch("classes live over different contexts")

    def __mul__(self, other: "MilnorClass") -> "MilnorClass":
        self._check_ctx(other)
        out = []
        for s in self.terms:
            for t in other.terms:
                out.append((s.coeff * t.coeff, s.entries + t.entries))
        return MilnorClass(self.ctx, self.degree + other.degree, out)

    def map_entries(self, fn, new_ctx=None) -> "MilnorClass":
        return MilnorClass(new_ctx if new_ctx is not None else self.ctx,
                           self.degree,
                           [(t.coeff, [fn(e) for e in t.entries])
                            for t in self.terms])

    # --- io ---------------------------------------------------------------

    def serialize(self) -> str:
        if not self.terms:
            return f"deg:{self.degree} 0"
        parts = [f"deg:{self.degree}"]
        for i, t in enumerate(self.terms):
            if i == 0:
                parts.append(("-" if t.coeff < 0 else "") + t.serialize())
            else:
                parts.append("-" if t.coeff < 0 else "+")
                parts.append(t.serialize())
        return " ".join(parts)

    def __repr__(self):
        return self.serialize()


def symbol(ctx, entries) -> MilnorClass:
    """The class of the single symbol {e_1,...,e_n}, coefficient 1."""
    entries = tuple(entries)
    return MilnorClass(ctx, len(entries), ((1, entries),))


def tame_rewrite(place, a: MilnorClass):
    """The generator form of a class at one discrete valuation.

    `place` answers uniformizer(), split(x) = (v(x), u) with
    x = u*pi^v(x), and minus_one(): a local field context or a place of a
    rational function field.  Each entry x splits as u*pi^k by
    multilinearity; repeated pi's are merged with {pi,pi} = {pi,-1}; a
    single remaining pi is swapped to the front (each transposition flips
    the sign).  Terms acquiring an
    entry 1 are dropped: {1,...} = 0.

    Returns (pi_terms, unit_terms): (coeff, entries) pairs, unmerged, in
    the order the rewrite finishes them; pi_terms have pi in front.
    """
    if a.degree < 1:
        raise BadInput(f"the tame symbol needs degree >= 1, got {a.degree}")
    pi = place.uniformizer()
    pi_terms, unit_terms = [], []
    work = list(a.terms)
    while work:
        c, ent = work.pop()
        if c == 0 or any(e.is_one() for e in ent):
            continue
        # split one non-unit, non-pi entry.  The rewrite's own pi is
        # skipped by identity; otherwise the valuation is asked first,
        # once, because a local element stores it while comparing with pi
        # subtracts (a Place answers its own pi without dividing)
        split_at = None
        for i, e in enumerate(ent):
            if e is not pi:
                k, u = place.split(e)
                if k != 0 and e != pi:
                    split_at = i
                    break
        if split_at is not None:
            if not u.is_one():
                work.append((c, ent[:split_at] + (u,) + ent[split_at + 1:]))
            work.append((c * k, ent[:split_at] + (pi,) + ent[split_at + 1:]))
            continue
        pis = [i for i, e in enumerate(ent) if e == pi]
        if len(pis) >= 2:
            i, j = pis[0], pis[1]
            # drag position j next to i, then {pi,pi} -> {pi,-1}
            moved = list(ent)
            for k2 in range(j, i + 1, -1):
                moved[k2], moved[k2 - 1] = moved[k2 - 1], moved[k2]
            sign = -1 if (j - i - 1) % 2 else 1
            moved[i + 1] = place.minus_one()
            work.append((c * sign, tuple(moved)))
        elif pis:
            i = pis[0]
            sign = -1 if i % 2 else 1
            pi_terms.append((c * sign, (pi,) + ent[:i] + ent[i + 1:]))
        else:
            unit_terms.append((c, ent))
    return pi_terms, unit_terms


class FFKGroup:
    """K^M_n(F_q) presented on the single generator {g,...,g}.

    relator_meta[i] describes relation i of the presentation:
    ("order",) for the group order q-1, or ("steinberg", i, j) for the
    relation i*j coming from g^i + g^j = 1.
    """

    __slots__ = ("q", "n", "presentation", "relator_meta")

    def __init__(self, q: int, n: int, presentation, relator_meta):
        self.q = q
        self.n = n
        self.presentation = presentation
        self.relator_meta = relator_meta

    @property
    def order(self) -> int:
        """The order of the cyclic group, 0 for K_0 = Z."""
        return self.presentation.gcd

    @property
    def invariant_factors(self) -> list[int]:
        return self.presentation.invariant_factors

    def vector_of(self, a: MilnorClass) -> list[int]:
        """Exponent of the class on the generator of T_n = Z/(q-1)."""
        if a.degree != self.n:
            raise PatternMismatch(
                f"a degree-{a.degree} class in K_{self.n}(F_{self.q})")
        total = 0
        for t in a.terms:
            prod = t.coeff
            for e in t.entries:
                prod *= e.dlog()
            total += prod
        return [total % (self.q - 1)]


@lru_cache(maxsize=None)
def ff_kgroup(q: int, n: int) -> FFKGroup:
    """Present K^M_n(F_q): the order q-1 and, for n >= 2, the Steinberg
    rows i*j of g^i + g^j = 1 for i = 1, 2, ... until the gcd is 1, left
    unreduced mod q-1 for the certificates."""
    if n < 0:
        raise BadInput(f"K_n needs degree n >= 0, got {n}")
    field = ff_ctx_q(q)
    if n == 0:
        # K_0 = Z: one free generator
        return FFKGroup(q, n, AbGroupPresentation([]), [])
    rows, meta = [q - 1], [("order",)]
    d, i, g = q - 1, 0, field.gen()
    while n >= 2 and d != 1:
        i += 1  # 1 <= i <= q-2 until d = 1, so 1 - g^i and j are nonzero
        j = (field.one() - g ** i).dlog()
        rows.append(i * j)
        meta.append(("steinberg", i, j))
        d = math.gcd(d, i * j)
    return FFKGroup(q, n, AbGroupPresentation(rows), meta)


def ff_congruent(a: MilnorClass, b: MilnorClass, m: int = 0) -> bool:
    """Decide a = b in K_n(F_q)/m, or in K_n(F_q) itself when m = 0, for
    classes of one degree n over F_q.  The group is cyclic, so compare the
    exponents on its generator mod gcd(m, order); degree 0 is Z, read off
    the coefficient sums without a presentation."""
    if a.degree == 0:
        va, vb = (sum(t.coeff for t in c.terms) for c in (a, b))
        order = 0
    else:
        kg = ff_kgroup(a.ctx.q, a.degree)
        (va,), (vb,) = kg.vector_of(a), kg.vector_of(b)
        order = kg.order
    mod = math.gcd(m, order)
    return (va - vb) % mod == 0 if mod else va == vb
