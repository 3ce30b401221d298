"""Every name that ``hcmlab`` exports has a program caller, and every
``__all__`` entry names something its module defines.

A program caller is a module of the package, a demo, the benchmark in
perfbench/ or the acceptance tests.  The unit tests alone do not keep a name
public: a name that only they call belongs out of the package, not in it.
A file calls a name when it refers to it as a name, an attribute, an imported
name or a string (the benchmark wraps its targets by name); a definition,
``__all__`` and ``__init__.py`` do not count.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hcmlab"

# exported with no program caller, each with its reason
ALLOWED = {
    "density_T_alpha": "the density of T_alpha, the paper's subject; its callers use cdf_T_alpha",
}


def _exports():
    """The names that the ``from .module import ...`` lines of __init__.py export."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def _referenced(path):
    names, tree = set(), ast.parse(path.read_text(), str(path))
    tree.body = [node for node in tree.body if not (
        isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_program_caller():
    callers = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
    refs = set().union(*(_referenced(path) for path in callers if path.name != "__init__.py"))
    exports = _exports()
    assert ALLOWED.keys() <= exports
    assert not sorted(exports - refs - ALLOWED.keys())


def test_every_all_entry_is_defined():
    # a deleted name must leave no entry behind: ``from module import *`` would raise
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            module = importlib.import_module(f"hcmlab.{path.stem}")
            assert not [n for n in module.__all__ if not hasattr(module, n)], path.name
