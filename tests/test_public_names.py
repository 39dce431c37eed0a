"""The public surface of :mod:`repro` resolves, and live code reaches it.

A name that is deleted or moved out of a module must take its re-exports
with it: a dangling ``__all__`` entry breaks ``from package import *`` and
advertises a name the package no longer offers.

A public method or property of a ``src/`` class that only tests call is
surface nothing uses: the library keeps it working, documents it and
reviews it for its tests' sake.  Checks of the paper's theory that no fit
runs belong in ``tests/oracles.py``; anything else goes, unless
:data:`UNREACHED_ALLOWED` names why it stays.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

PACKAGES = ["repro", "repro.api"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The trees whose code counts as a caller; ``tests/`` does not.
LIVE_TREES = ("src", "examples", "benchmarks", "perfbench")

#: Public methods no live code calls, each with the reason it stays.
UNREACHED_ALLOWED = {
    "PoleResidueModel.to_statespace": (
        "the r*m real realization an enforced model can be delivered in (ROADMAP item 6)"
    ),
}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def _live_names() -> set[str]:
    """Every name live code uses: attributes, identifiers and name-like strings.

    Docstrings and dict keys do not count.  A string such as
    ``"singular_values"`` or ``"module:function"`` counts by its parts: that
    is how ``getattr`` and perfbench's spans name what they reach.
    """
    names: set[str] = set()
    for tree_name in LIVE_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    first = node.body[0] if node.body else None
                    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                        skipped.add(id(first.value))
                elif isinstance(node, ast.Dict):
                    skipped.update(id(key) for key in node.keys if key is not None)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in skipped and re.fullmatch(r"[\w.:]+", node.value)):
                    names.update(re.split(r"[.:]", node.value))
    return names


def _public_methods() -> dict[str, tuple[str, str]]:
    """``Class.method`` -> ``(method, path:line)`` for every public method of a src/ class."""
    methods = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    methods[f"{cls.name}.{node.name}"] = (node.name, where)
    return methods


def test_every_public_method_is_reached():
    """Every public method and property of a src/ class has a caller outside tests/."""
    used = _live_names()
    methods = _public_methods()
    unreached = [f"{qualified} ({where})" for qualified, (name, where) in sorted(methods.items())
                 if name not in used and qualified not in UNREACHED_ALLOWED]
    assert not unreached, (
        f"{len(unreached)} public methods are called only by tests; delete them, move a "
        f"paper-theory check to tests/oracles.py, or allow one with its reason: {unreached}")
    stale = [qualified for qualified in UNREACHED_ALLOWED
             if qualified not in methods or methods[qualified][0] in used]
    assert not stale, f"allowed as unreached but now gone or reached: {stale}"
