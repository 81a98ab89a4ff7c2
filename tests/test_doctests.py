"""Run the `>>>` examples in the certiroot module docstrings.

Kept as a test rather than pytest's --doctest-modules, which would also
import every module under perfbench when that directory is tested.
"""

import doctest
import importlib
import pkgutil

import pytest

import certiroot

MODULES = sorted(m.name for m in pkgutil.iter_modules(certiroot.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"certiroot.{name}")
    assert doctest.testmod(module).failed == 0
