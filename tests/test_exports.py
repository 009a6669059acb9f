"""Every exported name resolves: the package's `__all__` and that of each
of its modules."""

import importlib
import pkgutil

import pytest

import trapdiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(trapdiff.__path__))


def test_package_exports_resolve():
    missing = [n for n in trapdiff.__all__ if not hasattr(trapdiff, n)]
    assert not missing
    assert len(set(trapdiff.__all__)) == len(trapdiff.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"trapdiff.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
    assert len(set(exported)) == len(exported)
