"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import edgebandit

# running the package's __main__ would start the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(edgebandit.__path__) if m.name != "__main__")


def test_package_imports():
    assert edgebandit.__version__
    assert MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"edgebandit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
