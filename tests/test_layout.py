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
