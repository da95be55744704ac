"""Source hygiene: every export resolves, and no top-level name is dead."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eitats

PACKAGE = Path(eitats.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
MODULES = ["eitats"] + [f"eitats.{info.name}" for info in pkgutil.iter_modules(eitats.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _bound(stmt) -> set:
    """Names a top-level statement defines: a function, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read(node) -> set:
    """Names a subtree refers to: identifiers, attributes and whole-string
    constants (``monkeypatch.setattr(module, "name", ...)`` and the like)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def dead_names(sources: dict, defining: set) -> list:
    """(path, name) of each top-level function, class or constant of the files
    in ``defining`` that no statement of ``sources`` refers to, other than the
    one defining it.  ``__all__`` lists and imports do not count as uses."""
    defined, used = [], set()
    for path, text in sources.items():
        for stmt in ast.parse(text).body:
            names = _bound(stmt)
            if "__all__" in names:
                continue
            if path in defining:
                defined += [(path, n) for n in sorted(names) if not n.startswith("__")]
            used |= _read(stmt) - names
    return [(path, name) for path, name in defined if name not in used]


def test_every_top_level_name_is_used():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    defining = {str(path.relative_to(ROOT)) for path in PACKAGE.glob("*.py")}
    assert len(defining) == len(MODULES)
    assert dead_names(sources, defining) == []
    # a self-call, an __all__ entry and an import are no use
    scan = dead_names({"m.py": "def f(n):\n    return f(n - 1)\n__all__ = ['f']\n"
                               "X = 1\nY = X\n", "t.py": "from m import f\n"}, {"m.py"})
    assert scan == [("m.py", "f"), ("m.py", "Y")]


def unused_imports(text: str) -> list:
    """Names a module imports but neither reads nor re-exports in its ``__all__``."""
    tree = ast.parse(text)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for stmt in tree.body:
        if "__all__" in _bound(stmt):
            used |= set(ast.literal_eval(stmt.value))
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) == len(MODULES)
    assert {name: names for name, names in found.items() if names} == {}
    # a re-export through __all__ is a use; an attribute name or a string is not
    scan = unused_imports("from __future__ import annotations\nimport os.path, sys\n"
                          "from m import a, b as c, d\n__all__ = ['a']\n"
                          "sys.exit(x.d, 'c')\n")
    assert scan == ["os", "c", "d"]
