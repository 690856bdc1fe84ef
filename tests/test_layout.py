import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import mlogsfbm

PACKAGE = Path(mlogsfbm.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_cross_module_access():
    """No module imports ``_name`` from a sibling or reads ``sibling._name``:
    what one module shares with another is public."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1
                    or (node.module or "").split(".")[0] == "mlogsfbm"):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{path.name}:{node.lineno} imports "
                                     f"{alias.name}")
                    if node.module in (None, "mlogsfbm"):
                        modules.add(alias.asname or alias.name)
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert not found, found


def _unread_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter of a function or
    lambda that its body never reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [(node.lineno, getattr(node, "name", "<lambda>"), name)
                   for name in names if name not in read]
    return unread


def test_every_parameter_is_read():
    """Each parameter of each function in the package is read in its body
    (nested functions count): a value a caller must pass and nothing uses
    is an interface without a reason."""
    found = [f"{path.name}:{line} {function}({name})"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, function, name in _unread_parameters(
                 ast.parse(path.read_text()))]
    assert not found, found


def test_unread_parameter_check_sees_one():
    tree = ast.parse("def f(a, b, *, c=None):\n    return [a, lambda d: c]\n")
    assert _unread_parameters(tree) == [(1, "f", "b"), (2, "<lambda>", "d")]


def test_every_export_resolves():
    """Each name a module lists in ``__all__`` exists in it: a deleted
    function leaves no stale export behind."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "mlogsfbm" if path.stem == "__init__" else f"mlogsfbm.{path.stem}")
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, missing


def test_import_loads_no_scipy():
    """``import mlogsfbm`` loads no scipy module: scipy.special alone adds
    about 0.3 s, so ``power_exp_integral`` imports ``hyp1f1`` when called."""
    code = ("import sys, mlogsfbm; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]", out.stdout
