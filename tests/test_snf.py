"""Cyclic group presentations: a relation column's gcd and Bezout row."""

import math
import random

import pytest

import milnorforge.snf as snf_module
from milnorforge.errors import SelfCheckFailed
from milnorforge.snf import AbGroupPresentation


def bezout_list(g):
    return [g.bezout.get(i, 0) for i in range(len(g.relations))]


def test_frozen_column_example():
    # the expected row is row 0 of U from a general Smith normal form
    # U*A*V = D of this column, computed independently
    g = AbGroupPresentation([40, 0, 0, 36, 36, -15])
    assert g.gcd == 1
    assert bezout_list(g) == [-2, 0, 0, -9, 0, -27]


def test_presentation_invariant_factors():
    assert AbGroupPresentation([4, 6]).invariant_factors == [2]
    assert AbGroupPresentation([12, -18, 30]).invariant_factors == [6]


def test_presentation_of_trivial_group():
    assert AbGroupPresentation([1]).invariant_factors == []
    assert AbGroupPresentation([6, 10, 15]).invariant_factors == []


def test_presentation_with_free_part():
    # no relation, or only zero relations: the group is Z (factor 0)
    for rels in ([], [0, 0]):
        g = AbGroupPresentation(rels)
        assert g.gcd == 0 and g.invariant_factors == [0]
        assert g.coordinates([5]) == [5]
        assert g.express_in_relators([0]) == [0] * len(rels)
        with pytest.raises(SelfCheckFailed):
            g.express_in_relators([5])


def test_invariant_factor_is_gcd_of_random_columns():
    rng = random.Random(5)
    for _ in range(300):
        col = [rng.choice((0, 0, 6, -6, rng.randint(-40, 40),
                           rng.randint(-10 ** 6, 10 ** 6)))
               for _ in range(rng.randint(0, 15))]
        g = AbGroupPresentation(col)
        d = math.gcd(*col)
        assert g.invariant_factors == ([] if d == 1 else [d]), col
        assert sum(u * r for u, r in zip(bezout_list(g), col)) == d
        combo = g.express_in_relators([3 * d])
        assert sum(c * r for c, r in zip(combo, col)) == 3 * d
        if d != 1:
            with pytest.raises(SelfCheckFailed):
                g.express_in_relators([3 * d + 1])


def test_coordinates_kill_relations():
    g = AbGroupPresentation([6, 10])
    assert g.coordinates([6]) == [0]
    assert g.coordinates([10]) == [0]
    assert g.coordinates([1]) == g.coordinates([7])  # differs by a relation
    assert g.coordinates([1]) != g.coordinates([2])
    assert g.coordinates([-4]) == [0] and g.coordinates([3]) != [0]


# --- the gcd certificate raises, also under python -O ---------------------

def test_gcd_certificate_check_raises(monkeypatch):
    real = snf_module._column_gcd
    for wrong in (
            lambda g, u: (2 * g, {i: 2 * c for i, c in u.items()}),  # 2g
            lambda g, u: (-g, {i: -c for i, c in u.items()}),  # negative
            lambda g, u: (g, {**u, 0: u.get(0, 0) + 1})):  # bad row
        monkeypatch.setattr(snf_module, "_column_gcd",
                            lambda col: wrong(*real(col)))
        with pytest.raises(SelfCheckFailed):
            AbGroupPresentation([4, 6, 9])


def test_express_in_relators_remultiply_check_raises():
    g = AbGroupPresentation([4, 6])
    c0, c1 = g.express_in_relators([2])
    assert 4 * c0 + 6 * c1 == 2
    g.bezout = {i: c + 1 for i, c in g.bezout.items()}  # corrupt the row
    with pytest.raises(SelfCheckFailed):
        g.express_in_relators([2])


_CORRUPT_BEZOUT = """
import milnorforge.snf as snf_module
from milnorforge.errors import SelfCheckFailed
if __debug__:
    raise SystemExit("not running under python -O")
g = snf_module.AbGroupPresentation([4, 6])
g.bezout = {0: 1}
try:
    g.express_in_relators([2])
except SelfCheckFailed as e:
    print("raised:", e)
snf_module._column_gcd = lambda col: (4, {0: 1})  # 4 does not divide 6
try:
    snf_module.AbGroupPresentation([4, 6])
except SelfCheckFailed as e:
    print("raised:", e)
"""


def test_bezout_certificate_runs_under_python_O(run_python_O):
    out = run_python_O(_CORRUPT_BEZOUT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised: relator combination failed to re-multiply",
        "raised: Bezout row does not certify the gcd"]
