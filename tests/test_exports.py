"""Exported names: every one that a module or the package promises exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multinoise

MODULES = sorted(m.name for m in pkgutil.iter_modules(multinoise.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"multinoise.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"multinoise.{name}.__all__ names missing: {missing}"


def test_package_imports_exist():
    """Each name the package re-exports is defined by its source module."""
    tree = ast.parse(Path(multinoise.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"multinoise.{module}")
        assert hasattr(source, name), f"multinoise.{module}.{name}"
        assert getattr(multinoise, name) is getattr(source, name)
