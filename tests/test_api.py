import importlib
import pkgutil

import pytest

import neighbornorm

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(neighbornorm.__path__))


def test_package_exports_resolve():
    missing = [name for name in neighbornorm.__all__ if not hasattr(neighbornorm, name)]
    assert not missing, f"neighbornorm.__all__ names that do not resolve: {missing}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"neighbornorm.{module_name}")
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"neighbornorm.{module_name}.__all__ names that do not resolve: {missing}"
    assert len(set(exported)) == len(exported), f"neighbornorm.{module_name}.__all__ repeats a name"
