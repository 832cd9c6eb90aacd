"""Lint: every name a package module imports is used in it or exported in
its `__all__`, every name in an `__all__` is defined at its module's top
level, and every module-level definition is exported or referenced
somewhere in the package.  Read from the source with `ast`, so nothing is
imported, except by the check that a fresh interpreter leaves heavy modules
out of `sys.modules`."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ptnls").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    exported = _exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or the
    plain-name targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` for each module-level definition that is neither in its
    module's `__all__` nor referenced anywhere but in its own definition: by
    a name in its module, or by `from .module import name` in another."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    imported_from: set[tuple[str, str]] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported_from.update((node.module or "__init__", a.name)
                                     for a in node.names)
    out = []
    for mod, tree in trees.items():
        exported = _exported(tree)
        loads = [Counter(n.id for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                 for stmt in tree.body]
        total = sum(loads, Counter())
        for stmt, own in zip(tree.body, loads):
            out += [f"{mod}.{name}" for name in _defined_names(stmt)
                    if name != "__all__" and name not in exported
                    and total[name] == own[name] and (mod, name) not in imported_from]
    return sorted(out)


def undefined_exports(source: str) -> list[str]:
    """Names in the module's `__all__` that no top-level statement defines
    or imports."""
    tree = ast.parse(source)
    defined: set[str] = set()
    for stmt in tree.body:
        defined.update(_defined_names(stmt))
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            defined.update(a.asname or a.name.split(".")[0] for a in stmt.names)
    return sorted(_exported(tree) - defined)


def test_lint_flags_an_unused_import():
    src = "import os\nfrom typing import Optional, Union\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == ["line 2: Union"]
    assert unused_imports("from math import pi\n__all__ = ['pi']\n") == []


def test_lint_flags_an_unreferenced_definition():
    sources = {
        "a": "__all__ = ['pub']\ndef pub(): return _used()\ndef _used(): pass\n"
             "def _dead(n): return _dead(n - 1)\n_X, _Y = 1, 2\nprint(_X)\n",
        "b": "class _Dead: pass\ndef _shared(): pass\n",
    }
    assert unreferenced_definitions(sources) == ["a._Y", "a._dead", "b._Dead",
                                                 "b._shared"]
    sources["a"] += "from .b import _shared\n"
    assert unreferenced_definitions(sources) == ["a._Y", "a._dead", "b._Dead"]


def test_lint_flags_an_undefined_export():
    src = ("__all__ = ['f', 'C', 'X', 'pi', 'gone', 'local']\n"
           "from math import pi\ndef f():\n    local = 1\nclass C: pass\nX: int = 1\n")
    assert undefined_exports(src) == ["gone", "local"]
    assert undefined_exports("x = 1\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_undefined_exports(path):
    assert undefined_exports(path.read_text("utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text("utf-8") for p in SOURCES}
    assert unreferenced_definitions(sources) == []


def test_cli_import_leaves_heavy_modules_out():
    # SciPy costs about 0.3 s and 18 MB at import; urllib.request, pulled in
    # by xml.sax.saxutils, about 40 ms
    code = ("import sys, ptnls.cli; from ptnls.catalog import load_catalog; "
            "load_catalog(); "
            "print(sorted(m for m in ('scipy', 'urllib.request') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
