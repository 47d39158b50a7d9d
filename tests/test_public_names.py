"""The public surface: each layer's `__all__`, re-exported by `delpezzo`.

tests/golden/public_names.txt pins the sorted names, so a name that is
dropped from, or added to, a layer's `__all__` shows up as a diff.
"""

import types
from pathlib import Path

import pytest

import delpezzo

GOLDEN = Path(__file__).resolve().parent / "golden" / "public_names.txt"
LAYERS = ("errors", "lattice", "roots", "weyl", "geometry", "degeneration", "weights", "period")


def test_public_names_match_the_golden():
    assert sorted(delpezzo.__all__) == GOLDEN.read_text().split()


def test_all_has_no_duplicates_and_no_modules():
    assert len(set(delpezzo.__all__)) == len(delpezzo.__all__)
    modules = [n for n in delpezzo.__all__ if isinstance(getattr(delpezzo, n), types.ModuleType)]
    assert not modules


def test_package_all_is_the_layers_all_in_order():
    names = [n for layer in LAYERS for n in getattr(delpezzo, layer).__all__]
    assert delpezzo.__all__ == names


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_resolve_to_the_package_objects(layer):
    module = getattr(delpezzo, layer)
    assert module.__all__ == sorted(module.__all__)
    for name in module.__all__:
        assert getattr(delpezzo, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from delpezzo import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(delpezzo.__all__)
    assert all(ns[name] is getattr(delpezzo, name) for name in ns)
