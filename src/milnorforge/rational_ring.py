"""The ring of rational functions A(t_1,...,t_k) over a local ring A.

A is the valuation ring of a LocalFieldCtx at finite precision.  S is
the set of polynomials with at least one unit coefficient; A(t...) is
the localization at S and is again local.  The module provides
S-membership, invertibility, the residue map to kappa(t...), a sampled
soundness test for membership in the delta-kernel (the improved Milnor
K-group), and round-trip checks for the base-change isomorphism
B (x)_A A(t) = B(t) with B = A[X]/(pi), with the cost bound that keeps
one such round trip within seconds.

B(t) has two models.  Representation 1 is the free A(t)-module on
1, X, ..., X^(d-1): numerators N_0, ..., N_(d-1) in A[t] over one shared
denominator in S, so sums and products multiply denominators once per
element, not once per coordinate.  Representation 2 is a fraction with
B-coefficients; its denominator D is inverted through its norm,
D^-1 = adj(M) e_0 / det M for M the matrix of multiplication by D, with
det M and the adjugate column from Berkowitz's division-free algorithm,
so no pivot is ever chosen or divided by.

k <= 2 only: one variable for A(t), two for the delta test's target.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .arith.factor import is_irreducible
from .arith.finite_field import _extension_points
from .arith.local import LAURENT, PADIC, LocalFieldCtx
from .arith.poly import Poly, _exact_zero
from .bass_tate import k_equal
from .errors import (
    BadInput,
    ContextMismatch,
    EliminationFailed,
    NotAUnit,
    NonUnitEntry,
    NotMonic,
    PrecisionTooLowToReduce,
    ResidueReducible,
    SelfCheckFailed,
    ZeroElement,
)
from .ratfunc import QuotCtx, QuotElem, RatFuncCtx, RatFuncElem
from .symbols import MilnorClass

MAX_VARIABLES = 2
DELTA_SAMPLE_POINTS = 16


# --------------------------------------------------------------------------
# coefficient helpers (A-integers or B = A[X]/pi elements)
# --------------------------------------------------------------------------


def _coeff_is_unit(c) -> bool:
    """Unit test in the local coefficient ring."""
    if isinstance(c, QuotElem):
        return any(_coeff_is_unit(a) for a in c.rep.coeffs)
    return (not c.is_zero()) and c.val == 0


def _coeff_is_integral(c) -> bool:
    if isinstance(c, QuotElem):
        return all(_coeff_is_integral(a) for a in c.rep.coeffs)
    return c.is_zero() or c.val >= 0


def _coeff_negligible(c, floor: int) -> bool:
    """Indistinguishable from zero at the working precision."""
    if isinstance(c, QuotElem):
        return all(_coeff_negligible(a, floor) for a in c.rep.coeffs)
    return c.is_zero() or c.val >= floor


def _coeff_close(a, b, floor: int) -> bool:
    if a == b:
        return True
    return _coeff_negligible(a - b, floor)


def _coeff_residue(A: LocalFieldCtx, c) -> int:
    """Reduction A -> kappa, sending the maximal ideal to 0, as the
    encoding of the image."""
    if c.is_zero() or c.val > 0:
        return 0
    if c.val < 0:
        raise PrecisionTooLowToReduce("coefficient is not integral")
    return A.residue_enc(c)


def _residue_poly(A: LocalFieldCtx, f: "MultiPoly") -> Poly:
    """Coefficientwise reduction of a one-variable f, a Poly over kappa."""
    encs = [0] * (max(f.coeffs)[0] + 1) if f.coeffs else []
    for (i,), c in f.coeffs.items():
        encs[i] = _coeff_residue(A, c)
    return Poly.from_encs(A.residue_field, encs)


# --------------------------------------------------------------------------
# sparse multivariate polynomials
# --------------------------------------------------------------------------


class MultiPoly:
    """Sparse polynomial in k <= 2 variables over a local coefficient ring.

    coeffs maps exponent tuples of length k to coefficients, exact zeros
    dropped.  The constructor checks k and the exponents; +, - and * check
    that both operands share k and the ring, then build through _make.
    """

    __slots__ = ("ctx", "k", "coeffs")

    def __init__(self, ctx, k: int, coeffs):
        if not 1 <= k <= MAX_VARIABLES:
            raise BadInput(f"{k} variables; 1 to {MAX_VARIABLES} supported")
        clean = {}
        for exps, c in dict(coeffs).items():
            exps = tuple(exps)
            if len(exps) != k:
                raise BadInput(f"exponent {exps} in a {k}-variable polynomial")
            if not _exact_zero(c):
                clean[exps] = c
        self.ctx = ctx
        self.k = k
        self.coeffs = clean

    @classmethod
    def _make(cls, ctx, k: int, coeffs: dict) -> "MultiPoly":
        """Unchecked: coeffs' keys are already k-tuples."""
        f = cls.__new__(cls)
        f.ctx, f.k = ctx, k
        f.coeffs = {e: c for e, c in coeffs.items() if not _exact_zero(c)}
        return f

    def _check_operand(self, o: "MultiPoly"):
        if o.k != self.k:
            raise BadInput(f"{o.k}-variable operand, {self.k} expected")
        if o.ctx is not self.ctx and o.ctx != self.ctx:
            raise ContextMismatch(f"{o.ctx!r} operand over {self.ctx!r}")

    @classmethod
    def zero(cls, ctx, k: int) -> "MultiPoly":
        return cls(ctx, k, {})

    @classmethod
    def const(cls, ctx, k: int, c) -> "MultiPoly":
        return cls(ctx, k, {(0,) * k: c})

    @classmethod
    def one(cls, ctx, k: int) -> "MultiPoly":
        return cls.const(ctx, k, ctx.one())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.coeffs)

    def __add__(self, o: "MultiPoly") -> "MultiPoly":
        self._check_operand(o)
        out = dict(self.coeffs)
        for exps, c in o.coeffs.items():
            out[exps] = out[exps] + c if exps in out else c
        return MultiPoly._make(self.ctx, self.k, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.ctx, self.k,
                               {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, o: "MultiPoly") -> "MultiPoly":
        return self + (-o)

    def __mul__(self, o: "MultiPoly") -> "MultiPoly":
        self._check_operand(o)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = ((e1[0] + e2[0],) if self.k == 1
                     else tuple(a + b for a, b in zip(e1, e2)))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return MultiPoly._make(self.ctx, self.k, out)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(self.ctx, self.k,
                         {e: x * c for e, x in self.coeffs.items()})

    def map_coeffs(self, fn, new_ctx) -> "MultiPoly":
        return MultiPoly(new_ctx, self.k,
                         {e: fn(c) for e, c in self.coeffs.items()})

    def same_as(self, o: "MultiPoly", floor: int | None = None) -> bool:
        """Coefficientwise equality; with a floor, differences of
        valuation >= floor count as zero (working-precision equality)."""
        for exps in set(self.coeffs) | set(o.coeffs):
            a = self.coeffs.get(exps, self.ctx.zero())
            b = o.coeffs.get(exps, self.ctx.zero())
            if floor is None:
                if not a == b:
                    return False
            elif not _coeff_close(a, b, floor):
                return False
        return True

    def serialize(self) -> str:
        if not self.coeffs:
            return "0"
        names = ["t1", "t2"][: self.k] if self.k == 2 else ["t"]
        parts = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            cs = c.serialize() if hasattr(c, "serialize") else repr(c)
            mono = "*".join(f"{names[i]}^{e}"
                            for i, e in enumerate(exps) if e)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.serialize()})"


def s_member(f: MultiPoly) -> bool:
    """Membership in S: some coefficient is a unit of the local ring."""
    return any(_coeff_is_unit(c) for c in f.coeffs.values())


# --------------------------------------------------------------------------
# elements of A(t_1,...,t_k)
# --------------------------------------------------------------------------


class RationalRingElem:
    """Fraction num/den of multivariate polynomials with den in S.  Every
    construction checks S-membership and integrality; serialize() keeps
    its text in ``_text``, as no field changes after construction."""

    __slots__ = ("A", "k", "num", "den", "_text")

    def __init__(self, A, k: int, num: MultiPoly, den: MultiPoly):
        if not s_member(den):
            raise NotAUnit("denominator is not in S")
        for c in list(num.coeffs.values()) + list(den.coeffs.values()):
            if not _coeff_is_integral(c):
                raise PrecisionTooLowToReduce("coefficients must be integral")
        self.A = A
        self.k = k
        self.num = num
        self.den = den
        self._text = None

    @classmethod
    def from_poly(cls, A, f: MultiPoly) -> "RationalRingElem":
        return cls(A, f.k, f, MultiPoly.one(f.ctx, f.k))

    @classmethod
    def const(cls, A, k: int, c) -> "RationalRingElem":
        return cls.from_poly(A, MultiPoly.const(A, k, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.same_as(RationalRingElem.from_poly(
            self.A, MultiPoly.one(self.num.ctx, self.k)))

    def __add__(self, o):
        return RationalRingElem(self.A, self.k,
                                self.num * o.den + o.num * self.den,
                                self.den * o.den)

    def __neg__(self):
        return RationalRingElem(self.A, self.k, -self.num, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RationalRingElem(self.A, self.k, self.num * o.num,
                                self.den * o.den)

    def inverse(self):
        if not is_unit(self):
            raise NotAUnit("element is not a unit of A(t...)")
        return RationalRingElem(self.A, self.k, self.den, self.num)

    def same_as(self, o) -> bool:
        """Equality by cross-multiplication at working precision."""
        return (self.num * o.den).same_as(o.num * self.den,
                                          floor=self.A.prec)

    # MilnorClass entry protocol
    def __eq__(self, other):
        # elements of another ring are unequal; same_as would refuse them
        return (isinstance(other, RationalRingElem) and other.k == self.k
                and other.num.ctx == self.num.ctx and self.same_as(other))

    def __hash__(self):
        """k = 1 over A: the hash of the residue in kappa(t).  Equal elements
        have num*den' - num'*den in pi^prec A[t] with prec >= 1, and both
        denominators lie in S, so their residues are one fraction, which
        RatFuncElem keeps in one normal form.  k = 2, and fractions with
        B = A[X]/(pi) coefficients: residue_map gives no normal form (an
        unreduced pair over kappa[t1, t2], or no kappa(t) image), so all
        of them hash alike."""
        if self.k == 1 and not isinstance(self.num.ctx, QuotCtx):
            return hash(residue_map(self))
        return hash(("ratring", self.k))

    def serialize(self) -> str:
        if self._text is None:
            one = MultiPoly.one(self.den.ctx, self.k)
            self._text = (self.num.serialize() if self.den.same_as(one) else
                          f"({self.num.serialize()})/({self.den.serialize()})")
        return self._text

    def __repr__(self):
        return self.serialize()


def is_unit(x: RationalRingElem) -> bool:
    """Units of the local ring A(t...): numerator in S."""
    return s_member(x.num)


# one kappa(t) context per residue field, shared by residue_map's images
_kappa_t = lru_cache(maxsize=None)(RatFuncCtx)


def residue_map(x: RationalRingElem):
    """Coefficientwise reduction to kappa(t) (k = 1) or to a fraction of
    polynomials over kappa (k = 2, returned unreduced).  A fraction with
    B = A[X]/(pi) coefficients has no image here: ContextMismatch."""
    if isinstance(x.num.ctx, QuotCtx):
        raise ContextMismatch("residue map needs A-coefficients, not "
                              "B = A[X]/(pi)")
    A = x.A
    kappa = A.residue_field
    if x.k == 1:
        return RatFuncElem(_kappa_t(kappa, "t"), _residue_poly(A, x.num),
                           _residue_poly(A, x.den))
    return tuple(f.map_coeffs(
        lambda c: kappa.from_enc(_coeff_residue(A, c)), kappa)
        for f in (x.num, x.den))


# --------------------------------------------------------------------------
# delta-kernel test (improved Milnor K-theory membership)
# --------------------------------------------------------------------------


def delta_kernel_check(s: MilnorClass) -> bool:
    """Sampled test of delta(s) = s(t1) - s(t2) = 0 over A(t1, t2).

    Sound necessary condition: reduce entries to kappa(t), specialize
    t2 to sampled constants c, and decide s(t) - s(c) = 0 in Milnor
    K-theory of kappa(t).  Exact for classes with constant entries.  The c
    are the first DELTA_SAMPLE_POINTS points other than 0, 1 of the walk.
    """
    if s.is_zero():
        return True
    for t in s.terms:
        for e in t.entries:
            if not isinstance(e, RationalRingElem) or e.k != 1:
                raise ContextMismatch("delta test needs A(t) entries")
            if not is_unit(e):
                raise NonUnitEntry(e.serialize())
    reduced = [(t.coeff, [residue_map(e) for e in t.entries])
               for t in s.terms]
    # constants are fixed by both inclusions: delta vanishes formally
    if all(e.num.is_const() and e.den.is_const()
           for _, ent in reduced for e in ent):
        return True
    if s.degree > 2:
        # residues of every kappa_P are trivial above K_1, so the
        # canonical forms cannot separate anything: vacuously true
        return True
    kappa = s.terms[0].entries[0].A.residue_field
    points = ((big, emb, c) for big, emb, c in _extension_points(kappa)
              if not (c.is_zero() or c.is_one()))
    for big, emb, c in islice(points, DELTA_SAMPLE_POINTS):
        F = RatFuncCtx(big, "t")
        terms_t = []
        terms_c = []
        usable = True
        for coeff, ent in reduced:
            up = [RatFuncElem(F, e.num.map_coeffs(emb, big),
                              e.den.map_coeffs(emb, big)) for e in ent]
            vals = []
            for e in up:
                nv = e.num.eval(c)
                dv = e.den.eval(c)
                if dv.is_zero() or nv.is_zero():
                    usable = False
                    break
                vals.append(F.from_const(nv * dv.inverse()))
            if not usable:
                break
            terms_t.append((coeff, up))
            terms_c.append((coeff, vals))
        if not usable:
            continue
        a = MilnorClass(F, s.degree, terms_t)
        b = MilnorClass(F, s.degree, terms_c)
        if not k_equal(a, b):
            return False
    return True


# --------------------------------------------------------------------------
# base change A(t) (x)_A B  =  B(t),  B = A[X]/(pi)
# --------------------------------------------------------------------------


def _check_residue_irreducible(A: LocalFieldCtx, pi: Poly):
    if not pi.is_monic():
        raise NotMonic("pi must be monic")
    pibar = Poly.from_encs(A.residue_field,
                           [_coeff_residue(A, c) for c in pi.coeffs])
    if pibar.degree != pi.degree or not is_irreducible(pibar):
        raise ResidueReducible("pi is reducible over the residue field")


class Rep1:
    """An element sum_i nums[i] X^i / den of B(t) in representation 1.

    The numerators nums[0..d-1] lie in A[t] and share one denominator
    den in S, so a sum or product multiplies denominators once.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: MultiPoly):
        self.nums = nums
        self.den = den

    @classmethod
    def from_fractions(cls, A, vec) -> "Rep1":
        """d fractions of A(t), put over the product of their denominators."""
        den = MultiPoly.one(A, 1)
        for x in vec:
            den = den * x.den
        nums = []
        for i, x in enumerate(vec):
            num = x.num
            for j, y in enumerate(vec):
                if j != i:
                    num = num * y.den
            nums.append(num)
        return cls(nums, den)


def _rep1_reduce(A, pi: Poly, nums):
    """Reduce a long list of X-coefficients modulo monic pi."""
    d = pi.degree
    nums = list(nums)
    while len(nums) > d:
        top = nums.pop()
        i = len(nums) - d
        for j in range(d):
            if not _exact_zero(pi.coeffs[j]):
                nums[i + j] = nums[i + j] - top.scale(pi.coeffs[j])
    while len(nums) < d:
        nums.append(MultiPoly.zero(A, 1))
    return nums


def rep1_mul(A, pi: Poly, x: Rep1, y: Rep1) -> Rep1:
    """Product in the A(t)-module representation of B(t): the numerators
    multiply as X-polynomials over A[t] and are reduced modulo pi."""
    d = pi.degree
    out = [MultiPoly.zero(A, 1)] * (2 * d - 1)
    for i, a in enumerate(x.nums):
        for j, b in enumerate(y.nums):
            out[i + j] = out[i + j] + a * b
    return Rep1(_rep1_reduce(A, pi, out), x.den * y.den)


def rep1_add(x: Rep1, y: Rep1) -> Rep1:
    return Rep1([a * y.den + b * x.den for a, b in zip(x.nums, y.nums)],
                x.den * y.den)


def rep1_same(A, x: Rep1, y: Rep1) -> bool:
    """Equality by cross-multiplication at working precision."""
    return all((a * y.den).same_as(b * x.den, floor=A.prec)
               for a, b in zip(x.nums, y.nums))


def _const_bpoly(B: QuotCtx, f: MultiPoly) -> MultiPoly:
    """A[t] -> B[t] along the inclusion A -> B."""
    return f.map_coeffs(B.from_base, B)


def _join_bpoly(A, B: QuotCtx, nums) -> MultiPoly:
    """sum_i nums[i] X^i as a polynomial over B (inverse of _split_bpoly)."""
    zero = A.zero()
    exps = set().union(*(n.coeffs for n in nums))
    return MultiPoly(B, 1, {e: QuotElem(B, Poly(A, [n.coeffs.get(e, zero)
                                                    for n in nums]))
                            for e in exps})


def _split_bpoly(A, B: QuotCtx, f: MultiPoly):
    """B[t] -> list of d polynomials over A (coordinates in the X-basis)."""
    d = B.degree
    comps = [dict() for _ in range(d)]
    for exps, c in f.coeffs.items():
        for i in range(min(len(c.rep.coeffs), d)):
            a = c.rep.coeffs[i]
            if not _exact_zero(a):
                comps[i][exps] = a
    return [MultiPoly(A, 1, comp) for comp in comps]


def conv_to_brep(A, B: QuotCtx, v: Rep1) -> RationalRingElem:
    """Representation 1 -> rational function over B: sum N_i X^i / D."""
    return RationalRingElem(A, 1, _join_bpoly(A, B, v.nums),
                            _const_bpoly(B, v.den))


def _dot(xs, ys):
    out = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out = out + x * y
    return out


def _charpoly(M):
    """[c_1, ..., c_n] with det(lambda - M) = lambda^n + c_1 lambda^(n-1)
    + ... + c_n, by Berkowitz's division-free algorithm (Inf. Process.
    Lett. 18, 1984): ring operations only, so approximate zeros of a
    precision ring are never divided by.

    Going up the trailing principal submatrices, the characteristic
    polynomial of [[a, R], [C, M1]] is a Toeplitz matrix with first
    column (1, -a, -R C, -R M1 C, -R M1^2 C, ...) times that of M1.
    """
    n = len(M)
    c = []  # monic characteristic polynomial of M[r+1:, r+1:], lead dropped
    for r in range(n - 1, -1, -1):
        m = n - r
        row = M[r][r + 1:]
        sub = [line[r + 1:] for line in M[r + 1:]]
        v = [M[i][r] for i in range(r + 1, n)]
        col = [-M[r][r]]
        for k in range(m - 1):
            col.append(-_dot(row, v))
            if k < m - 2:
                v = [_dot(line, v) for line in sub]
        new = []
        for k in range(m):
            acc = col[k] + c[k] if k < len(c) else col[k]
            for j in range(k):
                acc = acc + col[k - 1 - j] * c[j]
            new.append(acc)
        c = new
    return c


def _adj_column(A, M):
    """(adj(M) e_0, det M) without division.

    Cayley-Hamilton gives M Q = -c_n I for Q = M^(n-1) + c_1 M^(n-2) +
    ... + c_(n-1) I, so adj(M) = (-1)^(n+1) Q and det M = (-1)^n c_n.
    Q e_0 is summed over the Krylov vectors M^k e_0 by Horner's rule.
    """
    n = len(M)
    c = _charpoly(M)
    q = [MultiPoly.one(A, 1)] + [MultiPoly.zero(A, 1)] * (n - 1)
    for k in range(n - 1):
        q = [_dot(line, q) for line in M]
        q[0] = q[0] + c[k]
    if n % 2 == 0:
        return [-a for a in q], c[-1]
    return q, -c[-1]


def conv_to_arep(A, B: QuotCtx, x: RationalRingElem) -> Rep1:
    """Rational function over B -> representation 1, inverting the
    denominator through its norm.

    M, the matrix of multiplication by the denominator D on 1, X, ...,
    X^(d-1), has det M = N_{B(t)/A(t)}(D), which lies in S exactly when
    D is a unit, and D^-1 = D* / det M with D* = sum_i (adj(M) e_0)_i X^i.
    The numerator times D* is split into coordinates over det M.
    """
    d = B.degree
    cols = []
    col = x.den
    theta = B.theta()
    for _ in range(d):
        cols.append(_split_bpoly(A, B, col))
        col = col.scale(theta)
    M = [[cols[j][i] for j in range(d)] for i in range(d)]
    adj, det = _adj_column(A, M)
    if not s_member(det):
        raise EliminationFailed("norm of the denominator is not in S: "
                                "denominator not a unit")
    dstar = _join_bpoly(A, B, adj)
    if not (x.den * dstar).same_as(_const_bpoly(B, det), floor=A.prec):
        raise SelfCheckFailed("denominator times its adjugate is not "
                              "its norm")
    return Rep1(_split_bpoly(A, B, x.num * dstar), det)


def random_integral(A, rng):
    """Zero or a unit times pi^k, k = 0, 1, 2, each with chance 1/4."""
    k = rng.randrange(4)
    if k == 3:
        return A.zero()
    return A.random_unit(rng) * A.uniformizer() ** k


def random_multipoly(A, k: int, rng, max_deg: int = 2,
                     ensure_s: bool = False) -> MultiPoly:
    coeffs = {}
    n_terms = rng.randrange(1, 4)
    for _ in range(n_terms):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(k))
        coeffs[exps] = random_integral(A, rng)
    f = MultiPoly(A, k, coeffs)
    if ensure_s and not s_member(f):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(k))
        coeffs[exps] = A.random_unit(rng)
        f = MultiPoly(A, k, coeffs)
    return f


def random_ratring_elem(A, k: int, rng):
    num = random_multipoly(A, k, rng)
    den = random_multipoly(A, k, rng, ensure_s=True)
    return RationalRingElem(A, k, num, den)


# One base-change round trip at degree d and precision N costs about
# d^3 * (1 + (N / scale)^e), fitted to timed runs of dense pi (README).  The
# precision term grows faster over Laurent series, whose digits are separate
# coefficients, than over p-adic numbers, whose digits share one integer.
_BASE_CHANGE_PRECISION_COST = {PADIC: (126, 1), LAURENT: (24, 1.5)}


def check_base_change_cost(model: str, degree: int, precision: int):
    """BadInput when a base-change round trip at this degree and precision
    would cost more than one at degree 6 and precision 8 over the same
    model; needs no coefficient of pi."""
    scale, e = _BASE_CHANGE_PRECISION_COST[model]
    if (degree ** 3 * (1 + (precision / scale) ** e)
            > 6 ** 3 * (1 + (8 / scale) ** e)):
        raise BadInput(f"base change at degree {degree} and precision "
                       f"{precision} costs more than degree 6 at precision 8")


def base_change_roundtrip(A: LocalFieldCtx, pi: Poly, rng,
                          samples: int = 5) -> bool:
    """Round-trip and homomorphism checks across the two models of B(t).

    Representation 1 (Rep1): X-polynomials of degree < deg pi with A(t)
    coefficients over one shared denominator.  Representation 2:
    rational functions with B coefficients.  The sampled fractions of
    representation 1 are put over their common denominator first.
    Raises ResidueReducible when B would not be local.
    """
    _check_residue_irreducible(A, pi)
    B = QuotCtx(A, pi)
    d = pi.degree
    for _ in range(samples):
        vec = Rep1.from_fractions(
            A, [random_ratring_elem(A, 1, rng) for _ in range(d)])
        wec = Rep1.from_fractions(
            A, [random_ratring_elem(A, 1, rng) for _ in range(d)])
        x2 = conv_to_brep(A, B, vec)
        y2 = conv_to_brep(A, B, wec)
        # round trip 1 -> 2 -> 1
        if not rep1_same(A, conv_to_arep(A, B, x2), vec):
            return False
        # ring-operation compatibility
        if not conv_to_brep(A, B, rep1_add(vec, wec)).same_as(x2 + y2):
            return False
        if not conv_to_brep(A, B, rep1_mul(A, pi, vec, wec)).same_as(x2 * y2):
            return False
        # round trip 2 -> 1 -> 2 on an element with a genuine B-denominator
        num = _const_bpoly(B, random_multipoly(A, 1, rng))
        theta_t = MultiPoly(B, 1, {(1,): B.theta()})
        den = _const_bpoly(B, random_multipoly(A, 1, rng, ensure_s=True)) \
            + theta_t
        try:
            z2 = RationalRingElem(A, 1, num, den)
        except NotAUnit:
            continue
        back = conv_to_brep(A, B, conv_to_arep(A, B, z2))
        if not back.same_as(z2):
            return False
    return True
