"""Smith normal form and abelian group presentations."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import milnorforge
from milnorforge.errors import SelfCheckFailed
from milnorforge.snf import (
    NOT_IN_SUBGROUP,
    AbGroupPresentation,
    mat_det,
    mat_mul,
    snf,
)

# the package re-exports the function snf, which hides the module of that name
snf_module = sys.modules["milnorforge.snf"]


def is_diagonal(d):
    return all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)


def test_frozen_snf_example():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = snf(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert is_diagonal(d)
    assert [d[i][i] for i in range(3)] == [2, 2, 156]


def test_snf_divisibility_chain_random():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert is_diagonal(d)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_presentation_invariant_factors():
    # Z^2 / <(2,0),(0,12)> = Z/2 x Z/12
    g = AbGroupPresentation(2, [[2, 0], [0, 12]])
    assert g.invariant_factors == [2, 12]


def test_presentation_of_trivial_group():
    g = AbGroupPresentation(2, [[1, 0], [0, 1]])
    assert g.invariant_factors == []


def test_presentation_with_free_part():
    # Z^2 / <(2,4)> = Z/2 x Z  (factor 0 denotes a free summand)
    g = AbGroupPresentation(2, [[2, 4]])
    assert 0 in g.invariant_factors


def test_coordinates_kill_relations():
    g = AbGroupPresentation(2, [[3, 0], [0, 5]])
    assert g.coordinates([3, 0]) == [0] * len(g.coordinates([3, 0]))
    assert g.coordinates([0, 5]) == [0] * len(g.coordinates([0, 5]))
    a = g.coordinates([1, 2])
    b = g.coordinates([4, 7])  # differs by the relation lattice
    assert a == b


# --- the Bareiss determinant against exact rational elimination -----------

def fraction_det(a):
    """Test-only determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    assert det.denominator == 1
    return int(det)


def random_unimodular(rng, n):
    """A product of elementary row operations, like the U that snf builds."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.randint(0, 2)
        if kind == 0 and i != j:
            u[i] = [x + rng.randint(-3, 3) * y for x, y in zip(u[i], u[j])]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def random_sparse(rng, n):
    rows = []
    for _ in range(n):
        row = [0] * n
        for j in rng.sample(range(n), min(n, rng.randint(0, 3))):
            row[j] = rng.randint(-5, 5)
        rows.append(row)
    return rows


FIXED_DET_CASES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],        # every update is skipped
    [[2, 0, 0], [0, 3, 0], [0, 0, 5]],        # zero below the pivot, pivot != prev
    [[2, 1, 0], [0, 3, 1], [0, 0, 5]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],       # a row swap
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],        # singular
    [[0, 0], [0, 0]],
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[7]],
]


@pytest.mark.parametrize("a", FIXED_DET_CASES)
def test_mat_det_fixed_cases(a):
    assert mat_det(a) == fraction_det(a)


def test_mat_det_matches_rational_elimination():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 12)
        kind = rng.randrange(4)
        if kind == 0:  # dense
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        elif kind == 1:  # at most 3 nonzeros per row
            a = random_sparse(rng, n)
        elif kind == 2:  # singular: one row is a combination of two others
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n >= 3:
                i, j, k = rng.sample(range(n), 3)
                a[k] = [2 * x - y for x, y in zip(a[i], a[j])]
            else:
                a[0] = [0] * n
        else:  # unimodular, or a unimodular matrix with one row scaled
            a = random_unimodular(rng, n)
            if rng.random() < 0.5:
                i = rng.randrange(n)
                a[i] = [rng.choice((2, 3, -5)) * x for x in a[i]]
        assert mat_det(a) == fraction_det(a), a


def test_snf_transform_of_kgroup_shape_is_unimodular():
    # one column, many rows: the shape of an ff_kgroup presentation
    rng = random.Random(2)
    col = [[rng.randint(1, 200)] for _ in range(40)]
    u, d, v = snf(col)
    assert mat_det(u) == fraction_det(u) and abs(mat_det(u)) == 1
    assert d[0][0] == math.gcd(*(r[0] for r in col))


# --- self-checks raise, also under python -O ------------------------------

_CORRUPT_DET = """
import sys
import milnorforge
from milnorforge.errors import SelfCheckFailed
snf_module = sys.modules["milnorforge.snf"]
snf_module.mat_det = lambda a: 2  # every transform now looks non-unimodular
try:
    snf_module.snf([[2, 4], [6, 8]])
except SelfCheckFailed as e:
    print("raised:", e)
"""


def test_snf_unimodularity_check_runs_under_python_O():
    src = os.path.dirname(os.path.dirname(milnorforge.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_DET],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "raised: SNF transforms not unimodular" in out.stdout


def test_snf_transform_check_raises(monkeypatch):
    monkeypatch.setattr(snf_module, "mat_mul", lambda a, b: [[0]])
    with pytest.raises(SelfCheckFailed):
        snf([[2, 4], [6, 8]])


def test_express_in_relators_remultiply_check_raises():
    g = AbGroupPresentation(1, [[4], [6]])
    assert g.express_in_relators([2]) is not NOT_IN_SUBGROUP
    g.u = [[x + 1 for x in row] for row in g.u]  # corrupt the transform
    with pytest.raises(SelfCheckFailed):
        g.express_in_relators([2])
