"""Exported names: every one that a module or the package promises exists."""

import importlib
import pkgutil

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
    """Each name the package re-exports is defined by its source module and
    resolves to that module's object; any other name is an AttributeError."""
    assert multinoise._EXPORTS
    for name, module in multinoise._EXPORTS.items():
        source = importlib.import_module(f"multinoise.{module}")
        assert hasattr(source, name), f"multinoise.{module}.{name}"
        assert getattr(multinoise, name) is getattr(source, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        multinoise.no_such_name
