"""Cyclic groups Z / (r_1, ..., r_k) on one generator.

Every group the engine presents is K^M_n of a finite field, which is
cyclic (Milnor 1970; Bass-Tate 1973), so a presentation is one column of
relation integers.  Construction runs Euclid down that column and keeps
the gcd g with a sparse Bezout row u, sum u_i * r_i = g.  The pair is its
own certificate: g >= 0, g == sum u_i * r_i and g divides every r_i make g
the gcd, and construction raises SelfCheckFailed unless all three hold
(so the check also runs under python -O); express_in_relators raises it
too, for a vector outside the relator span: there is no sentinel result.
"""

from __future__ import annotations

from .errors import SelfCheckFailed


def _column_gcd(col) -> tuple[int, dict[int, int]]:
    """(g, u): g = gcd(col) >= 0 and u = {i: u_i} with sum u_i*col[i] = g.

    The pivot order is that of a Smith normal form of the column: the
    first entry of least |value| moves to the top, the other entries are
    reduced mod the pivot in index order, a nonzero remainder swaps in as
    the new pivot, and passes repeat until every other entry is 0.  Only
    an entry with a nonzero remainder can become the pivot again, so only
    those entries keep their Bezout row up to date.
    """
    d = list(col)
    u = [{i: 1} for i in range(len(d))]
    nonzero = [i for i, x in enumerate(d) if x]
    if not nonzero:
        return 0, {}
    p = min(nonzero, key=lambda i: abs(d[i]))
    d[0], d[p], u[0], u[p] = d[p], d[0], u[p], u[0]
    dirty = True
    while dirty:
        dirty = False
        for i in range(1, len(d)):
            if d[i]:
                qq, d[i] = divmod(d[i], d[0])
                if d[i]:  # the remainder is the smaller pivot
                    row = u[i]
                    for k, c in u[0].items():
                        row[k] = row.get(k, 0) - qq * c
                    u[i] = {k: c for k, c in row.items() if c}
                    d[0], d[i], u[0], u[i] = d[i], d[0], u[i], u[0]
                    dirty = True
    if d[0] < 0:
        return -d[0], {k: -c for k, c in u[0].items()}
    return d[0], u[0]


class AbGroupPresentation:
    """The cyclic group Z / (relations) on one generator.

    Group elements are one-entry exponent vectors [v], like the
    coordinates FFKGroup.vector_of returns.
    """

    __slots__ = ("relations", "gcd", "bezout")

    def __init__(self, relations):
        self.relations = list(relations)
        self.gcd, self.bezout = _column_gcd(self.relations)
        g, rels = self.gcd, self.relations
        if (g < 0 or sum(c * rels[i] for i, c in self.bezout.items()) != g
                or any(r % g if g else r for r in rels)):
            raise SelfCheckFailed("Bezout row does not certify the gcd")

    @property
    def invariant_factors(self) -> list[int]:
        """Nontrivial invariant factors of the quotient group (no 1s)."""
        return [] if self.gcd == 1 else [self.gcd]

    def coordinates(self, vec) -> list[int]:
        """Canonical coordinates [v mod g] of [v] (mod 0 = no reduction);
        two vectors map to the same group element iff these agree."""
        (v,) = vec
        return [v % self.gcd if self.gcd else v]

    def express_in_relators(self, vec):
        """Coefficients c with sum c_i * r_i = v for vec = [v]: the Bezout
        row scaled by v / g; SelfCheckFailed when g does not divide v."""
        (v,) = vec
        g = self.gcd
        if v % g if g else v:
            raise SelfCheckFailed(f"[{v}] is not in the span of the relators")
        scale = v // g if g else 0
        combo = [scale * self.bezout.get(i, 0)
                 for i in range(len(self.relations))]
        if sum(c * r for c, r in zip(combo, self.relations)) != v:
            raise SelfCheckFailed("relator combination failed to re-multiply")
        return combo
