"""Residue vectors, reciprocity, section and norm over rational function
fields.

For F = k(X) with k exact (a finite field or itself a rational function
field), a Milnor class of degree n has a tame residue of degree n-1 at
every place.  This module packages those residues as a vector over the
finite places, checks Weil reciprocity, splits the residue map by an
explicit section, and computes the norm K_n(k[X]/pi) -> K_n(k) through
the residue construction: lift through the pi-slot, clear every other
finite residue by descending-degree corrections, read off the residue
at infinity.

NORM_SIGN fixes the orientation: with N = NORM_SIGN * residue-at-infinity
the norm along a linear pi = X - a is the identity.
"""

from __future__ import annotations

from .arith.factor import is_irreducible
from .arith.finite_field import FiniteFieldCtx
from .arith.poly import Poly
from .errors import (
    BadInput,
    ContextMismatch,
    DegreeTooLarge,
    EliminationFailed,
    NotIrreducible,
    NotMonic,
    PrecisionExhausted,
    SelfCheckFailed,
)
from .ratfunc import (
    Place,
    QuotCtx,
    QuotElem,
    RatFuncCtx,
    irreducible_over,
    support,
    tame_at,
)
from .symbols import MilnorClass, SymbolTerm, symbol

NORM_SIGN = -1

# total place degree a single norm computation may spend on corrections
BT_CORRECTION_BUDGET = 64


# --------------------------------------------------------------------------
# residue vectors
# --------------------------------------------------------------------------


def class_to_unit(a: MilnorClass):
    """Canonical unit of a degree-1 class: the product of entries^coeff.

    K_1 of a field is the unit group itself, so this loses nothing.
    """
    if a.degree != 1:
        raise BadInput(f"a unit needs a degree-1 class, got degree {a.degree}")
    out = a.ctx.one()
    for t in a.terms:
        out = out * t.entries[0] ** t.coeff
    return out


def drop_trivial_terms(a: MilnorClass) -> MilnorClass:
    """Remove summands containing the entry 1 (they are zero classes)."""
    return MilnorClass(a.ctx, a.degree,
                       [t for t in a.terms
                        if not any(e.is_one() for e in t.entries)])


class ResidueVector:
    """Finitely supported family of residues, one per finite place.

    finite maps place keys to (Place, MilnorClass over kappa(P)) with the
    zero classes omitted; infinity holds the residue at the infinite
    place when it was computed (None for hand-built vectors).
    """

    __slots__ = ("F", "degree", "finite", "infinity")

    def __init__(self, F: RatFuncCtx, degree: int, finite, infinity=None):
        self.F = F
        self.degree = degree
        self.finite = {k: (p, c) for k, (p, c) in finite.items()
                       if not c.is_zero()}
        self.infinity = infinity

    def at(self, place: Place) -> MilnorClass:
        if place.is_infinite:
            return self.infinity
        if place.key() in self.finite:
            return self.finite[place.key()][1]
        return MilnorClass.zero(place.residue_ctx(), self.degree)

    def places(self) -> list[Place]:
        return [p for p, _ in self.finite.values()]

    def same_finite(self, other: "ResidueVector") -> bool:
        keys = set(self.finite) | set(other.finite)
        for k in keys:
            place = (self.finite.get(k) or other.finite[k])[0]
            if not _kappa_class_equal(self.at(place), other.at(place)):
                return False
        return True

    def serialize(self) -> str:
        parts = [f"{k} -> {c.serialize()}"
                 for k, (_, c) in sorted(self.finite.items())]
        if self.infinity is not None:
            parts.append(f"inf -> {self.infinity.serialize()}")
        return "; ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ResidueVector({self.serialize()})"


def _kappa_class_equal(a: MilnorClass, b: MilnorClass) -> bool:
    """Equality of residues in K_{n-1}(kappa(P)) for kappa finite over F_q.

    Degree 0 is Z; degree 1 is the unit group.  Higher degrees vanish for
    finite residue fields, but the bass-tate flows never compare them.
    """
    if a.degree == 0:
        ca = sum(t.coeff for t in a.terms)
        cb = sum(t.coeff for t in b.terms)
        return ca == cb
    if a.degree == 1:
        return class_to_unit(a) == class_to_unit(b)
    raise DegreeTooLarge("no exact comparison above degree 1 here")


def _finite_places_of(beta: MilnorClass) -> dict[str, Place]:
    """The finite places in the support of any entry of beta, by key."""
    places: dict[str, Place] = {}
    for t in beta.terms:
        for e in t.entries:
            for p in support(e):
                places[p.key()] = p
    return places


def residue_vector(a: MilnorClass, with_infinity: bool = True) -> ResidueVector:
    """Tame residues of a class over k(X) at every place of its support."""
    F: RatFuncCtx = a.ctx
    finite = {}
    for k, p in _finite_places_of(a).items():
        r = tame_at(p, a)
        if not r.is_zero():
            finite[k] = (p, r)
    inf = tame_at(Place.infinity(F), a) if with_infinity else None
    return ResidueVector(F, a.degree - 1, finite, inf)


# --------------------------------------------------------------------------
# reciprocity
# --------------------------------------------------------------------------


def reciprocity_check(a: MilnorClass) -> bool:
    """Weil reciprocity for a degree-2 class: the product over all places
    of N_{kappa(P)/k}(residue) is 1 in k^x."""
    if a.degree != 2:
        raise BadInput(f"reciprocity is checked in degree 2, got {a.degree}")
    rv = residue_vector(a, with_infinity=True)
    k_ctx = a.ctx.base
    prod = k_ctx.one()
    for _, (place, cls) in rv.finite.items():
        u = class_to_unit(cls)
        nm = u.norm_to_base() if isinstance(u, QuotElem) else u
        prod = prod * nm
    if not rv.infinity.is_zero():
        prod = prod * class_to_unit(rv.infinity)  # kappa(inf) = k
    return prod.is_one()


# --------------------------------------------------------------------------
# section of the residue map
# --------------------------------------------------------------------------


def bt_section(v: ResidueVector) -> MilnorClass:
    """A degree-(v.degree+1) class over k(X) whose finite residues are v.

    Greedy descending-degree sweep: at the largest unmatched place P,
    add {P, lift} whose residue there is exactly the target unit; the
    new residues it introduces live at places of strictly smaller degree.
    """
    F = v.F
    if v.degree != 1:
        raise BadInput("the section is implemented for unit-valued residue "
                       f"vectors (degree 1), got degree {v.degree}")
    target = {k: (p, class_to_unit(c)) for k, (p, c) in v.finite.items()}
    out = MilnorClass.zero(F, 2)
    budget = BT_CORRECTION_BUDGET
    while target:
        key = max(target, key=lambda k: (target[k][0].degree, k))
        place, u = target.pop(key)
        if u.is_one():
            continue
        budget -= place.degree
        if budget <= 0:
            raise PrecisionExhausted("section correction budget exhausted")
        lift = F.from_poly(u.rep)  # deg < deg P, a place-unit everywhere above
        term = symbol(F, [F.from_poly(place.poly), lift])
        out = out + term
        rv = residue_vector(term, with_infinity=False)
        for k2, (p2, c2) in rv.finite.items():
            if k2 == key:
                continue  # already matched by construction
            u2 = class_to_unit(c2)
            if k2 in target:
                target[k2] = (p2, target[k2][1] * u2.inverse())
            else:
                target[k2] = (p2, u2.inverse())
        # drop places that became trivial
        target = {k2: (p2, u2) for k2, (p2, u2) in target.items()
                  if not u2.is_one()}
    return out


# --------------------------------------------------------------------------
# norms via the residue construction
# --------------------------------------------------------------------------


def _lift_term(KX: RatFuncCtx, place_poly: Poly, t: SymbolTerm) -> SymbolTerm:
    entries = (KX.from_poly(place_poly),) \
        + tuple(KX.from_poly(e.rep) for e in t.entries)
    return SymbolTerm(t.coeff, entries)


def norm(xi: MilnorClass) -> MilnorClass:
    """Bass-Tate norm K_n(k[X]/pi) -> K_n(k), n <= 2.

    The input lives over a QuotCtx; pi and the base field are read from
    its context.  Degree 0 is multiplication by [kappa : k].
    """
    kappa: QuotCtx = xi.ctx
    if not isinstance(kappa, QuotCtx):
        raise ContextMismatch("norm input must live over a quotient field")
    k_ctx = kappa.field
    pi = kappa.pi
    n = xi.degree
    if n == 0:
        total = sum(t.coeff for t in xi.terms)
        return MilnorClass(k_ctx, 0, [SymbolTerm(total * pi.degree, ())])
    if n > 2:
        raise DegreeTooLarge("norm implemented for degrees 0, 1, 2")
    xi = drop_trivial_terms(xi)
    KX = RatFuncCtx(k_ctx, "X")
    place_pi = Place.finite(KX, pi)
    beta = MilnorClass(KX, n + 1, [_lift_term(KX, pi, t) for t in xi.terms])
    # clear every finite residue away from pi, largest places first
    budget = BT_CORRECTION_BUDGET
    while True:
        bad = []
        for key, p in _finite_places_of(beta).items():
            if key == place_pi.key():
                continue
            r = tame_at(p, beta)
            if not r.is_zero():
                bad.append((p, r))
        if not bad:
            break
        bad.sort(key=lambda pr: (pr[0].degree, pr[0].key()))
        place, r = bad[-1]
        budget -= place.degree
        if budget <= 0:
            raise PrecisionExhausted("norm correction budget exhausted")
        corr = MilnorClass(KX, n + 1,
                           [_lift_term(KX, place.poly, t) for t in r.terms])
        beta = beta - corr
    back = tame_at(place_pi, beta)
    if not (back - xi).is_zero():
        raise SelfCheckFailed("pi-residue drifted during corrections")
    return tame_at(Place.infinity(KX), beta).scale(NORM_SIGN)


# --------------------------------------------------------------------------
# class equality over the base fields
# --------------------------------------------------------------------------


def k_equal(a: MilnorClass, b: MilnorClass) -> bool:
    """Decide a = b in K_n of a finite field or of F_q(t), n <= 2.

    Over F_q this is the finite presentation; over F_q(t) degree 1 is
    the unit group and degree 2 injects into its finite residues.
    """
    if a.ctx != b.ctx or a.degree != b.degree:
        raise ContextMismatch("comparison needs one context and degree")
    ctx = a.ctx
    diff = a - b
    if a.degree == 0:
        return sum(t.coeff for t in diff.terms) == 0
    if isinstance(ctx, FiniteFieldCtx):
        from .symbols import ff_kgroup
        return ff_kgroup(ctx.q, a.degree).image_is_zero(diff)
    if isinstance(ctx, RatFuncCtx):
        if a.degree == 1:
            return class_to_unit(diff).is_one()
        if a.degree == 2:
            # K_2(k(t)) injects into the finite residues (K_2 of the
            # constants vanishes); each residue is trivial iff its unit is 1
            rv = residue_vector(diff, with_infinity=False)
            return all(class_to_unit(c).is_one()
                       for _, c in rv.finite.values())
    raise DegreeTooLarge("no equality test for this context/degree")


# --------------------------------------------------------------------------
# projection formula and functoriality
# --------------------------------------------------------------------------


def projection_formula_check(x: MilnorClass, y: MilnorClass) -> bool:
    """N(iota(x) * y) = x * N(y) for x over k and y over kappa = k[X]/pi."""
    kappa: QuotCtx = y.ctx
    lifted = x.map_entries(kappa.from_base, kappa)
    lhs = norm(lifted * y)
    rhs = x * norm(y)
    return k_equal(lhs, rhs)


def _flatten(elem, d1: int, d2: int):
    """Coordinates of an element of k[X]/pi1 [Y]/pi2 over k."""
    out = []
    for j in range(d2):
        cj = elem.rep.coeff(j)  # QuotElem over k
        for i in range(d1):
            out.append(cj.rep.coeff(i))
    return out


def _rank(vectors) -> int:
    """Rank of row vectors over an exact field, by Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = None
        for i in range(rank, len(rows)):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def tower_is_primitive(pi1: Poly, pi2: Poly) -> bool:
    """True iff theta2 generates the whole tower k -> k[X]/pi1 -> .../pi2.

    Checked as linear independence of 1, theta2, ..., theta2^(d-1) over k,
    which also certifies that pi2 is irreducible over the middle field.
    """
    Fp = QuotCtx(pi1.ctx, pi1)
    Fpp = QuotCtx(Fp, pi2)
    d1, d2 = pi1.degree, pi2.degree
    d = d1 * d2
    th = Fpp.theta()
    vecs = []
    acc = Fpp.one()
    for _ in range(d):
        vecs.append(_flatten(acc, d1, d2))
        acc = acc * th
    return _rank(vecs) == d


def composite_minimal_poly(pi1: Poly, pi2: Poly) -> Poly:
    """Minimal polynomial over k of theta2 in the tower, by resultant
    elimination: Res_X(pi1(X), pi2 with theta1 -> X, Y -> Z).

    Raises EliminationFailed when theta2 is not primitive.
    """
    k_ctx = pi1.ctx
    if not (pi1.is_monic() and pi2.is_monic()):
        raise NotMonic("tower polynomials must be monic")
    if not tower_is_primitive(pi1, pi2):
        raise EliminationFailed("theta2 does not generate the composite")
    KZ = RatFuncCtx(k_ctx, "Z")
    d1 = pi1.degree
    p1 = pi1.map_coeffs(KZ.from_const, KZ)
    # coefficient of X^i in pi2(Z; X): sum_j rep(c_j)[i] * Z^j
    cols = []
    for i in range(d1):
        zcoeffs = [pi2.coeff(j).rep.coeff(i) for j in range(pi2.degree + 1)]
        cols.append(KZ.from_poly(Poly(k_ctx, zcoeffs)))
    p2 = Poly(KZ, cols)
    res = p1.resultant(p2)
    if not res.den.is_one():
        raise EliminationFailed("resultant is not polynomial in Z")
    mu = res.num.monic()
    if mu.degree != d1 * pi2.degree:
        raise EliminationFailed("composite polynomial has wrong degree")
    if isinstance(k_ctx, FiniteFieldCtx):
        irr = is_irreducible(mu)
    elif mu.degree <= 3:
        irr = irreducible_over(mu)
    else:
        # beyond the root search: accept only a specialization certificate
        from .ratfunc import irreducible_by_specialization
        irr = irreducible_by_specialization(mu)
    if not irr:
        raise NotIrreducible("composite polynomial not certified irreducible")
    return mu


def functoriality_check(pi1: Poly, pi2: Poly, g: Poly) -> bool:
    """N_{F''/k} = N_{F'/k} o N_{F''/F'} on the unit g(theta2).

    The inner norm is the resultant Res_Y(pi2, g(Y)); the outer norm uses
    the residue construction; the single-step norm along the composite
    minimal polynomial mu is Res_Z(mu, g).
    """
    k_ctx = pi1.ctx
    mu = composite_minimal_poly(pi1, pi2)
    if not 0 < g.degree < mu.degree:
        raise BadInput("sample must generate a nonzero unit: need "
                       f"0 < deg g = {g.degree} < {mu.degree}")
    Fp = QuotCtx(k_ctx, pi1)
    g_up = g.map_coeffs(Fp.from_base, Fp)  # g(Y) over F'
    inner = pi2.resultant(g_up)  # element of F'
    outer = norm(symbol(Fp, [inner]))
    direct = mu.resultant(g)
    return class_to_unit(outer) == direct
