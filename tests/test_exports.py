"""Every name a module exports exists, and no removed name is exported."""

import pytest

from heckelab import (
    chromatic, cli, config, coxeter, hecke, laurentq, parabolic, symfunc,
)

# deleted, or moved to tests/oracles.py as test references
REMOVED = {
    coxeter: ("is_reduced", "hessenberg_from_skew", "Transposition",
              "weak_left_leq", "right_inversions",
              "apply_transposition_left", "transpositions"),
    laurentq: ("gauss_number",),
    parabolic: ("min_coset_rep",),
    symfunc: ("class_size", "z_matrix", "dominates"),
}
ALL_REMOVED = {name for names in REMOVED.values() for name in names}


@pytest.mark.parametrize("module", [
    config, coxeter, laurentq, hecke, parabolic, symfunc, chromatic, cli,
], ids=lambda m: m.__name__)
def test_exports_exist_and_removed_names_are_gone(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] \
        == []
    assert sorted(ALL_REMOVED.intersection(module.__all__)) == []
    assert [name for name in REMOVED.get(module, ())
            if hasattr(module, name)] == []


def test_removed_method_is_gone():
    assert not hasattr(laurentq.LaurentQ, "min_vexp")
