"""Smith normal form over Z and abelian-group presentations.

Matrices are plain lists of lists of Python ints (unbounded).  Every call
verifies its own output: U*A*V == D and |det U| = |det V| = 1, raising
SelfCheckFailed (so the checks also run under python -O).  The determinants
are exact Bareiss eliminations that skip each row update which would leave
the row unchanged (a zero in the pivot column and a pivot equal to the
previous one).  That keeps the check cheap on the U of a one-column
presentation such as ff_kgroup's: U is a permuted identity plus about one
more entry per row (1023 x 1023 with 2045 nonzeros at q = 1024), and all
but a few hundred of its half a million row updates are skipped.
"""

from __future__ import annotations

from .errors import SelfCheckFailed


class NotInSubgroup:
    """Sentinel result: the vector is not an integer combination of rows."""

    __slots__ = ()

    def __repr__(self):
        return "NotInSubgroup"


NOT_IN_SUBGROUP = NotInSubgroup()


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def mat_det(a) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            c = mi[k]
            if c == 0 and pivot == prev:
                continue  # the update below would return row i unchanged
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - c * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def snf(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*matrix*V = D diagonal, d_1 | d_2 | ...

    U and V are unimodular; both facts are verified before returning.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [row[:] for row in matrix]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):  # row dst += c * row src
        for j in range(cols):
            d[dst][j] += c * d[src][j]
        for j in range(rows):
            u[dst][j] += c * u[src][j]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        pi = pj = -1
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best, pi, pj = x, i, j
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        # clear the pivot row and column
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    qq = d[i][t] // d[t][t]
                    add_row(i, t, -qq)
                    if d[i][t]:  # remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    qq = d[t][j] // d[t][t]
                    add_col(j, t, -qq)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility d[t][t] | d[i][j] for the rest
        redo = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    add_row(t, i, 1)
                    redo = True
                    break
            if redo:
                break
        if redo:
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    if mat_mul(mat_mul(u, matrix), v) != d:
        raise SelfCheckFailed("SNF transform check failed")
    if abs(mat_det(u)) != 1 or abs(mat_det(v)) != 1:
        raise SelfCheckFailed("SNF transforms not unimodular")
    return u, d, v


class AbGroupPresentation:
    """Finitely presented abelian group: generators modulo relation rows."""

    __slots__ = ("num_generators", "relations", "u", "d", "v")

    def __init__(self, num_generators: int, relations):
        self.num_generators = num_generators
        self.relations = [row[:] for row in relations]
        if not self.relations:
            self.relations = []
        mat = self.relations or [[0] * num_generators]
        self.u, self.d, self.v = snf(mat)

    @property
    def invariant_factors(self) -> list[int]:
        """Nontrivial invariant factors of the quotient group (no 1s)."""
        out = []
        rows = len(self.d)
        for j in range(self.num_generators):
            dj = self.d[j][j] if j < rows else 0
            if dj != 1:
                out.append(dj)
        return out

    def coordinates(self, vec) -> list[int]:
        """Canonical coordinates of a generator-exponent vector in the quotient.

        Entry j is (vec*V)_j mod d_j (mod 0 = no reduction); two vectors map
        to the same group element iff their coordinates agree.
        """
        y = [sum(vec[i] * self.v[i][j] for i in range(self.num_generators))
             for j in range(self.num_generators)]
        rows = len(self.d)
        out = []
        for j in range(self.num_generators):
            dj = self.d[j][j] if j < rows else 0
            out.append(y[j] % dj if dj else y[j])
        return out

    def is_trivial_element(self, vec) -> bool:
        return all(c == 0 for c in self.coordinates(vec))

    def express_in_relators(self, vec):
        """Coefficients c with c * relations = vec, or NOT_IN_SUBGROUP."""
        if not self.relations:
            if all(x == 0 for x in vec):
                return []
            return NOT_IN_SUBGROUP
        rows = len(self.relations)
        # c*A = vec  <=>  (c*U^-1)*D = vec*V; solve for w = c*U^-1 then c = w*U
        y = [sum(vec[i] * self.v[i][j] for i in range(self.num_generators))
             for j in range(self.num_generators)]
        w = [0] * rows
        for j in range(self.num_generators):
            dj = self.d[j][j] if j < rows else 0
            if dj == 0:
                if y[j] != 0:
                    return NOT_IN_SUBGROUP
            else:
                if y[j] % dj:
                    return NOT_IN_SUBGROUP
                w[j] = y[j] // dj
        c = [sum(w[i] * self.u[i][j] for i in range(rows)) for j in range(rows)]
        check = [sum(c[i] * self.relations[i][j] for i in range(rows))
                 for j in range(self.num_generators)]
        if check != list(vec):
            raise SelfCheckFailed("relator combination failed to re-multiply")
        return c
