"""The export lists: every name in a package's __all__ resolves, so a
function deleted from the package but left in a list fails here."""

import importlib

import pytest


@pytest.mark.parametrize("modname", ["milnorforge", "milnorforge.arith"])
def test_star_import_resolves_every_exported_name(modname):
    names = {}
    exec(f"from {modname} import *", names)  # AttributeError on a stale name
    exported = importlib.import_module(modname).__all__
    assert sorted(set(exported) - names.keys()) == []
    assert len(set(exported)) == len(exported)
