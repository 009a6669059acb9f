"""Every module's `__all__` resolves, every name a module imports is
used, and the solver modules import without the oracles' dependencies."""

import ast
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _rebound(func) -> set[str]:
    """The names a function binds locally: its parameters, and every name
    assigned in its body (comprehension targets among them) outside the
    functions and classes nested in it."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _module_level_reads(tree) -> set[str]:
    """The names read where they refer to a module-level binding: at
    module level, or in a function none of whose enclosing functions
    (itself included) rebinds them. Decorators, defaults and annotations
    are read in the enclosing scope."""
    read = set()

    def visit(node, shadowed):
        if isinstance(node, _FUNCTIONS):
            for outer in [node.args, *getattr(node, "decorator_list", []),
                          getattr(node, "returns", None)]:
                if outer is not None:
                    visit(outer, shadowed)
            inner = shadowed | _rebound(node)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, inner)
            return
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in shadowed):
            read.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return read


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    """Each name a module imports is read in it or listed in its
    `__all__`, so a deletion cannot leave a dead import behind. A read
    inside a function counts only if no enclosing function rebinds the
    name (a parameter, an assignment or a comprehension target), so a
    local of the same name cannot hide a dead import."""
    module = importlib.import_module(f"trapdiff.{name}")
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = _module_level_reads(tree)
    assert not imported - read - set(getattr(module, "__all__", ()))
