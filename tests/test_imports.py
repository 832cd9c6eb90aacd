"""Lint: every name a package module imports is used in it or exported in
its `__all__`, no package module imports another's private name (test files
may), every name in an `__all__` is defined at its module's top level,
every module-level definition is exported or referenced somewhere in the
package, no package module passes an `eval_expr` result through a numpy
reshaper (it is already a float array of the batch's shape), the
17-digit format appears only in `solver`'s two formatters, only `cli.main`
writes to stderr with `file=sys.stderr` (every failure leaves by its one
handler), and every
defaulted parameter of an exported function is set by some call in the
source, the tests or the benchmark.  Read from the source with `ast`, so
nothing is imported, except by the check that a fresh interpreter leaves
heavy modules out of `sys.modules`."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ptnls").glob("*.py"))
# every file whose calls may set an option of the package
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


def private_imports(source: str) -> list[str]:
    """`line n: name` for each private name, one with a leading underscore
    that is not a dunder, taken by a relative import from another package
    module."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


# numpy calls that would reshape or convert a result `eval_expr` already
# returns as a float array of the batch's shape
_RESHAPERS = {"asarray", "array", "broadcast_to", "ravel"}


def _called_name(call: ast.Call) -> Optional[str]:
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def reshaped_evaluations(source: str) -> list[str]:
    """`line n: np.name` for each call of a numpy reshaper in `_RESHAPERS`
    that has an `eval_expr(...)` call among its arguments."""
    out = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr in _RESHAPERS
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
                and any(isinstance(n, ast.Call) and _called_name(n) == "eval_expr"
                        for arg in node.args
                        for n in ast.walk(arg))):
            out.append((node.lineno, f"{func.value.id}.{func.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(out)]


def literal_owners(source: str, literal: str) -> list[str]:
    """`line n: name` for each source line holding `literal`, name the
    top-level definition that spans it (`<module>` outside any)."""
    spans = [(stmt.lineno, stmt.end_lineno, stmt.name) for stmt in ast.parse(source).body
             if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [f"line {n}: " + next((name for first, last, name in spans if first <= n <= last),
                                 "<module>")
            for n, line in enumerate(source.splitlines(), 1) if literal in line]


def stderr_writers(source: str) -> list[str]:
    """`line n: name` for each call passing `file=sys.stderr`, name the
    innermost function whose body makes it (`<module>` outside any)."""
    out = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and any(
                    k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                    for k in child.keywords):
                out.append(f"line {child.lineno}: {owner}")
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return out


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


def _options(tree: ast.Module) -> dict[str, dict[str, Optional[int]]]:
    """For each function named in the module's `__all__`, its parameters
    with a default, each mapped to its position, or to None if it is
    keyword-only."""
    exported = _exported(tree)
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in exported:
            a = stmt.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            options = {p.arg: i for i, p in enumerate(positional) if i >= first}
            options.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults)
                            if d is not None})
            if options:
                out[stmt.name] = options
    return out


def unset_options(modules: Iterable[str], callers: Iterable[str]) -> list[str]:
    """`function.parameter` for each defaulted parameter of a function in a
    module's `__all__` that no call in `callers` sets.  A call is matched by
    the called name (`f(...)` or `obj.f(...)`); a positional argument or a
    keyword sets its parameter, and `*args` or `**kwargs` sets them all."""
    options: dict[str, dict[str, Optional[int]]] = {}
    for src in modules:
        options.update(_options(ast.parse(src)))
    unset = {(f, p) for f, params in options.items() for p in params}
    for src in callers:
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            params = options.get(name, {})
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                given = set(params)
            else:
                given = {k.arg for k in node.keywords} | {
                    p for p, i in params.items() if i is not None and i < len(node.args)}
            unset -= {(name, p) for p in given}
    return sorted(f"{f}.{p}" for f, p in unset)


def test_lint_flags_an_unused_import():
    src = "import os\nfrom typing import Optional, Union\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == ["line 2: Union"]
    assert unused_imports("from math import pi\n__all__ = ['pi']\n") == []


def test_lint_flags_a_private_import():
    src = ("from __future__ import annotations\nfrom . import __version__\n"
           "from .a import pub, _priv as _p\nfrom math import _private_ok\n"
           "from ..b import (x,\n    _y)\n")
    assert private_imports(src) == ["line 3: _priv", "line 5: _y"]


def test_lint_flags_a_reshaped_evaluation():
    src = ("import numpy as np\nfrom .jetexpr import eval_expr\n"
           "a = np.asarray(eval_expr(e, b))\nb = float(np.ravel(m.eval_expr(e, b))[0])\n"
           "c = np.broadcast_to(2.0 * eval_expr(e, b), s)\nd = np.array([eval_expr(e, b)])\n"
           "f = np.sum(eval_expr(e, b))\ng = np.asarray(evaluate(e))\n")
    assert reshaped_evaluations(src) == ["line 3: np.asarray", "line 4: np.ravel",
                                         "line 5: np.broadcast_to", "line 6: np.array"]


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text("utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_reshaped_evaluations(path):
    assert reshaped_evaluations(path.read_text("utf-8")) == []


def test_lint_names_the_owner_of_a_literal():
    src = ("X = '%.17g'\ndef f(v):\n    return format(v, '.17g')\n"
           "class C:\n    def g(self):\n        pass  # .17g\n")
    assert literal_owners(src, ".17g") == ["line 1: <module>", "line 3: f", "line 6: C"]


def test_17_digit_format_lives_in_the_two_formatters():
    # every float the package writes in 17 digits goes through fmt17 (one
    # value) or fmt17_array (an array, with fmt17 as its fallback)
    found = {p.stem: literal_owners(p.read_text("utf-8"), ".17g") for p in SOURCES}
    assert {name.split(": ")[1] for name in found.pop("solver")} <= {"fmt17", "fmt17_array"}
    assert all(not owners for owners in found.values()), found


def test_lint_names_the_function_that_writes_to_stderr():
    src = ("import sys\nprint('x', file=sys.stderr)\ndef f():\n    def g():\n"
           "        print('y', file=sys.stderr)\n    print('z', file=sys.stdout)\n"
           "class C:\n    def h(self):\n        log(file=sys.stderr, end='')\n")
    assert stderr_writers(src) == ["line 2: <module>", "line 5: g", "line 9: h"]


def test_only_main_writes_to_stderr():
    # a failure is reported once, by main's handler, with its exit code
    found = {f"{p.stem}.{owner.split(': ')[1]}" for p in SOURCES
             for owner in stderr_writers(p.read_text("utf-8"))}
    assert found == {"cli.main"}


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text("utf-8") for p in SOURCES}
    assert unreferenced_definitions(sources) == []


def test_lint_flags_an_option_no_call_sets():
    module = ("__all__ = ['f', 'g', 'h']\n"
              "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "def g(a=1, b=2): pass\n"
              "def h(a=1): pass\n"
              "def _private(a=1): pass\n")
    assert unset_options([module], []) == ["f.b", "f.c", "f.d", "f.e", "g.a", "g.b", "h.a"]
    callers = ["f(0, 1, e=5)\nobj.g(**kw)\nh(*args)\n", "f(0, d=None)\n"]
    assert unset_options([module], callers) == ["f.c"]
    assert unset_options([module], callers + ["m.f(0, 1, 2)\n"]) == []


def test_every_option_has_a_caller():
    assert unset_options([p.read_text("utf-8") for p in SOURCES],
                         [p.read_text("utf-8") for p in CALLERS]) == []


def test_cli_import_leaves_heavy_modules_out():
    # SciPy costs about 0.3 s and 18 MB at import; urllib.request, pulled in
    # by xml.sax.saxutils, about 40 ms; SymPy and its mpmath would be a
    # hidden dependency of the normal form, which is built here too
    code = ("import sys, ptnls.cli; from ptnls.catalog import CaseId, Kind, load_catalog; "
            "from ptnls.analysis import density_expr; from ptnls.jetexpr import to_poly; "
            "load_catalog(); to_poly(density_expr(CaseId.CASE2, Kind.ENERGY, 'Tt')); "
            "print(sorted(m for m in ('scipy', 'urllib.request', 'sympy', 'mpmath') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
