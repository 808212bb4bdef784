"""The examples in the module docstrings run as tests."""

import doctest

import pytest

from heckelab import chromatic, coxeter, hecke, laurentq, parabolic, symfunc


@pytest.mark.parametrize("module", [laurentq, coxeter, hecke, parabolic,
                                    symfunc, chromatic],
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
