"""The public names of the package resolve.  bench/layers.py traces the
functions named in each module's __all__, so a stale entry (a name deleted
from the module but left in the list) must fail here, not there."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import semiclass

MODULES = sorted(m.name for m in pkgutil.iter_modules(semiclass.__path__))


def test_every_module_has_an_export_list():
    assert MODULES and all(hasattr(importlib.import_module(f"semiclass.{m}"), "__all__") for m in MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"semiclass.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(pathlib.Path(semiclass.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"semiclass.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name) and hasattr(semiclass, alias.asname or alias.name)
            assert alias.name in mod.__all__
