"""Residue vectors, reciprocity, section and norm over rational function
fields.

For F = k(X) with k exact (a finite field or itself a rational function
field), a Milnor class of degree n has a tame residue of degree n-1 at
every place.  This module packages those residues as a vector over the
finite places, checks Weil reciprocity, splits the residue map by an
explicit section, and computes the norm K_n(k[X]/pi) -> K_n(k) through
the residue construction: lift through the pi-slot, clear every other
finite residue, read off the residue at infinity.  The section and the
norm share one descending-degree correction sweep.

NORM_SIGN fixes the orientation: with N = NORM_SIGN * residue-at-infinity
the norm along a linear pi = X - a is the identity.
"""

from __future__ import annotations

from .arith.finite_field import FiniteFieldCtx
from .arith.poly import Poly
from .errors import (
    BadInput,
    ContextMismatch,
    DegreeTooLarge,
    EliminationFailed,
    NotIrreducible,
    NotMonic,
    SelfCheckFailed,
)
from .ratfunc import (
    MAX_ROOT_SEARCH_DEGREE,
    Place,
    QuotCtx,
    RatFuncCtx,
    irreducible_by_specialization,
    irreducible_over,
    support,
    tame_at,
)
from .symbols import MilnorClass, ff_congruent, symbol

NORM_SIGN = -1

# total place degree one section or norm may spend on corrections; the
# sections of degree <= 32 measured over F_q, q <= 125, spent at most 137
BT_CORRECTION_BUDGET = 256


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

    finite maps each Place to its nonzero residue, a MilnorClass over
    kappa(P); infinity holds the residue at the infinite place.
    """

    __slots__ = ("F", "degree", "finite", "infinity")

    def __init__(self, F: RatFuncCtx, degree: int, finite: dict, infinity):
        self.F = F
        self.degree = degree
        self.finite = finite
        self.infinity = infinity

    def same_finite(self, other: "ResidueVector") -> bool:
        for P in self.finite.keys() | other.finite.keys():
            zero = MilnorClass.zero(P.residue_ctx(), self.degree)
            if not k_equal(self.finite.get(P, zero),
                           other.finite.get(P, zero)):
                return False
        return True

    def serialize(self) -> str:
        parts = [f"{P.key()} -> {c.serialize()}"
                 for P, c in sorted(self.finite.items(),
                                    key=lambda pc: pc[0].key())]
        parts.append(f"inf -> {self.infinity.serialize()}")
        return "; ".join(parts)

    def __repr__(self):
        return f"ResidueVector({self.serialize()})"


def _finite_residues(a: MilnorClass, skip: Place | None = None) -> dict:
    """The nonzero tame residues of a class over k(X), by finite Place,
    leaving out the place skip.

    Only places in the support of some entry can carry a residue.
    """
    out = {}
    for t in a.terms:
        for e in t.entries:
            for P in support(e):
                if P not in out and P != skip:
                    out[P] = tame_at(P, a)
    return {P: r for P, r in out.items() if not r.is_zero()}


def residue_vector(a: MilnorClass) -> ResidueVector:
    """Tame residues of a class over k(X) at every place of its support."""
    F: RatFuncCtx = a.ctx
    return ResidueVector(F, a.degree - 1, _finite_residues(a),
                         tame_at(Place(F, None), a))


# --------------------------------------------------------------------------
# reciprocity
# --------------------------------------------------------------------------


def reciprocity_check(a: MilnorClass) -> bool:
    """Weil reciprocity for a degree-2 class: the product over all places
    of N_{kappa(P)/k}(residue) is 1 in k^x."""
    if a.degree != 2:
        raise BadInput(f"reciprocity is checked in degree 2, got {a.degree}")
    rv = residue_vector(a)
    prod = a.ctx.base.one()
    for cls in rv.finite.values():
        prod = prod * class_to_unit(cls).norm_to_base()
    if not rv.infinity.is_zero():
        prod = prod * class_to_unit(rv.infinity)  # kappa(inf) = k
    return prod.is_one()


# --------------------------------------------------------------------------
# the correction sweep behind the section and the norm
# --------------------------------------------------------------------------


def _correction_sweep(out: MilnorClass, targets: dict, lift,
                      what: str) -> MilnorClass:
    """Add to `out` classes whose finite residues are `targets`.

    targets maps finite places to residue classes.  Each step pops the
    largest (degree, key) place P and adds lift(P, target), a class whose
    residue at P is the target and whose other finite residues sit at
    places of smaller degree; lift returns None when the target is
    trivial.  Those other residues are subtracted from their targets, so
    the places still to do only ever shrink in degree and each place is
    decided once.  The total degree of the places corrected is bounded
    by BT_CORRECTION_BUDGET.
    """
    budget = BT_CORRECTION_BUDGET
    while targets:
        place = max(targets, key=lambda P: (P.degree, P.key()))
        term = lift(place, targets.pop(place))
        if term is None:
            continue
        budget -= place.degree
        if budget <= 0:
            raise DegreeTooLarge(f"{what} corrections exceed the budget of "
                                 f"{BT_CORRECTION_BUDGET} in place degree")
        out = out + term
        for P, r in _finite_residues(term, skip=place).items():
            targets[P] = targets[P] - r if P in targets else -r
    return out


def bt_section(v: ResidueVector) -> MilnorClass:
    """A degree-(v.degree+1) class over k(X) whose finite residues are v.

    At each place P the sweep adds {P, u} with u the target unit written
    as a polynomial of degree < deg P: its residue at P is exactly u, and
    the new residues it introduces live at the factors of u.
    """
    F = v.F
    if v.degree != 1:
        raise BadInput("the section is implemented for unit-valued residue "
                       f"vectors (degree 1), got degree {v.degree}")

    def unit_lift(place: Place, target: MilnorClass):
        u = class_to_unit(target)
        if u.is_one():
            return None
        return symbol(F, [F.from_poly(place.poly), F.from_poly(u.rep)])

    return _correction_sweep(MilnorClass.zero(F, 2), dict(v.finite),
                             unit_lift, "section")


# --------------------------------------------------------------------------
# norms via the residue construction
# --------------------------------------------------------------------------


def _lift_term(KX: RatFuncCtx, place_poly: Poly, t) -> tuple:
    """The pair of c*{place_poly, formal lifts} for a term c*{entries}."""
    return t.coeff, (KX.from_poly(place_poly),) \
        + tuple(KX.from_poly(e.rep) for e in t.entries)


def norm(xi: MilnorClass) -> MilnorClass:
    """Bass-Tate norm K_n(k[X]/pi) -> K_n(k), n <= 2.

    The input lives over a QuotCtx; pi and the base field are read from
    its context.  Degree 0 is multiplication by [kappa : k].  Otherwise
    beta = {pi, lifts of xi} has residue xi at pi; the sweep clears its
    residues at the other finite places, all of degree < deg pi, with the
    same formal lifts, and the norm is read off the residue at infinity.
    """
    kappa: QuotCtx = xi.ctx
    if not isinstance(kappa, QuotCtx):
        raise ContextMismatch("norm input must live over a quotient field")
    k_ctx = kappa.field
    pi = kappa.pi
    n = xi.degree
    if n == 0:
        total = sum(t.coeff for t in xi.terms)
        return MilnorClass(k_ctx, 0, [(total * pi.degree, ())])
    if n > 2:
        raise DegreeTooLarge("norm implemented for degrees 0, 1, 2")
    xi = drop_trivial_terms(xi)
    KX = RatFuncCtx(k_ctx, "X")
    if not kappa.pi_is_irreducible():
        raise NotIrreducible(pi.serialize(KX.var))
    place_pi = Place(KX, pi)
    beta = MilnorClass(KX, n + 1, [_lift_term(KX, pi, t) for t in xi.terms])

    def formal_lift(place: Place, target: MilnorClass):
        if target.is_zero():
            return None
        return MilnorClass(KX, n + 1,
                           [_lift_term(KX, place.poly, t)
                            for t in target.terms])

    targets = {P: -r for P, r in _finite_residues(beta).items()
               if P != place_pi}
    beta = _correction_sweep(beta, targets, formal_lift, "norm")
    back = tame_at(place_pi, beta)
    if not (back - xi).is_zero():
        raise SelfCheckFailed("pi-residue drifted during corrections")
    return tame_at(Place(KX, None), beta).scale(NORM_SIGN)


# --------------------------------------------------------------------------
# class equality over the base fields
# --------------------------------------------------------------------------


def k_equal(a: MilnorClass, b: MilnorClass) -> bool:
    """Decide a = b in K_n of a finite field, of F_q(t) or of a residue
    field F_q[t]/(P), n <= 2.

    Over F_q this is symbols.ff_congruent; degree 1 is the unit group;
    K_2(F_q(t)) injects into its finite residues.
    """
    if a.ctx != b.ctx or a.degree != b.degree:
        raise ContextMismatch("comparison needs one context and degree")
    ctx = a.ctx
    if isinstance(ctx, FiniteFieldCtx):
        return ff_congruent(a, b)
    diff = a - b
    if a.degree == 0:
        return sum(t.coeff for t in diff.terms) == 0
    if a.degree == 1 and isinstance(ctx, (RatFuncCtx, QuotCtx)):
        return class_to_unit(diff).is_one()
    if a.degree == 2 and isinstance(ctx, RatFuncCtx):
        # K_2 of the constants vanishes, so a class is zero iff each of
        # its finite residues is
        return all(class_to_unit(r).is_one()
                   for r in _finite_residues(diff).values())
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


def composite_minimal_poly(pi1: Poly, pi2: Poly) -> Poly:
    """Minimal polynomial over k of theta2 in the tower, by resultant
    elimination: mu = Res_X(pi1(X), pi2 with theta1 -> X, Y -> Z).

    mu is monic of degree d1*d2 and vanishes at theta2.  Once mu is
    certified irreducible, k[theta2] is a field of degree d1*d2 inside
    the tower k -> k[X]/pi1 -> .../pi2, which has that degree too: theta2
    generates the whole tower, and pi2 is irreducible over the middle
    field.  A degenerate tower (pi2 = Y^2 - theta1^2, say) therefore ends
    in NotIrreducible.
    """
    k_ctx = pi1.ctx
    if not (pi1.is_monic() and pi2.is_monic()):
        raise NotMonic("tower polynomials must be monic")
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
    if (isinstance(k_ctx, FiniteFieldCtx)
            or mu.degree <= MAX_ROOT_SEARCH_DEGREE):
        irr = irreducible_over(mu)
    else:
        # beyond the root search: accept only a specialization certificate
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
    Fp = pi2.ctx  # F' = k[X]/pi1; norm decides pi1 there at most once
    if not (isinstance(Fp, QuotCtx) and Fp.pi == pi1):
        raise ContextMismatch("pi2 must have coefficients in k[X]/pi1")
    mu = composite_minimal_poly(pi1, pi2)
    if not 0 < g.degree < mu.degree:
        raise BadInput("sample must generate a nonzero unit: need "
                       f"0 < deg g = {g.degree} < {mu.degree}")
    g_up = g.map_coeffs(Fp.from_base, Fp)  # g(Y) over F'
    inner = pi2.resultant(g_up)  # element of F'
    outer = norm(symbol(Fp, [inner]))
    direct = mu.resultant(g)
    return class_to_unit(outer) == direct
