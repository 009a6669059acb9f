"""Every module's `__all__` resolves, and the solver modules import
without the oracles' dependencies."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import trapdiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(trapdiff.__path__))

_IMPORT_PROBE = """
import sys
import trapdiff.transport, trapdiff.ilt, trapdiff.specfun, trapdiff.waiting
print(" ".join(sorted(sys.modules)))
"""


def test_solver_modules_load_no_scipy():
    """Importing `transport`, `ilt`, `specfun` and `waiting` in a fresh
    process loads no scipy module, nor `trapdiff.fde` or
    `trapdiff.harness`, whose oracles need scipy: the package itself
    imports none of its modules."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(trapdiff.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "trapdiff.transport" in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert "trapdiff.fde" not in loaded and "trapdiff.harness" not in loaded


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"trapdiff.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
    assert len(set(exported)) == len(exported)
