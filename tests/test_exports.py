import importlib
import pkgutil

import pytest

import netcov

MODULES = ["netcov"] + [f"netcov.{m.name}"
                        for m in pkgutil.iter_modules(netcov.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
