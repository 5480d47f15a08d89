"""A guard against dead code in the package: an import nothing reads, a
function local that is assigned and never read, a module-level name that
nothing in the repository reads, or a package re-export that ``__all__``
and the imports of ``__init__.py`` disagree on.  A refactor that stops
using a name should delete it, not leave it behind."""

import ast
from pathlib import Path

import pytest

import dynmatch

SOURCES = sorted(Path(dynmatch.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
READERS = [*SOURCES, *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("perfbench/**/*.py"))]

# Nested scopes: their own assignments are not the enclosing function's locals.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _read_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unused_imports(source):
    """Names bound by the module's imports that nothing in it reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = _read_names(tree)
    return [name for name in bound if name not in read]


def _local_stores(node, out):
    """Names ``node``'s own scope assigns, not descending into nested ones."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(child.name)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            out.append(child.name)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            out.append(child.id)
        if not isinstance(child, SCOPES):
            _local_stores(child, out)
    return out


def unused_locals(source):
    """``function:name`` for each local a function assigns and nothing in
    it (nested scopes included) reads; ``_`` and declared globals and
    nonlocals are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _read_names(fn)
        declared = {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names}
        for name in dict.fromkeys(_local_stores(fn, [])):
            if name != "_" and name not in read and name not in declared:
                found.append(f"{fn.name}:{name}")
    return found


def top_level_names(source):
    """Names the module's own statements bind: functions, classes and
    assigned globals, dunders excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def names_read(source):
    """Names ``source`` reads, as a bare name, an attribute or an import."""
    tree = ast.parse(source)
    read = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def public_imports(source):
    """Names the module's top-level ``from`` imports bind, private ones
    excepted."""
    return [a.asname or a.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for a in node.names
            if not (a.asname or a.name).startswith("_")]


def test_all_lists_exactly_the_package_imports():
    # each __all__ entry is bound by an import, once, and each public
    # import is listed: a rename cannot leave one side behind
    imported = public_imports(Path(dynmatch.__file__).read_text())
    assert sorted(dynmatch.__all__) == sorted(set(imported))


def test_every_module_level_name_is_read():
    # __init__.py binds only the package's re-exports and dunders
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    unread = [f"{p.stem}.{name}" for p in SOURCES if p.name != "__init__.py"
              for name in top_level_names(p.read_text()) if name not in read]
    assert unread == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_has_no_dead_names(path):
    source = path.read_text()
    if path.name != "__init__.py":  # the package's imports are its re-exports
        assert unused_imports(source) == []
    assert unused_locals(source) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\n", ["os"]),
        ("import numpy as np\n", ["np"]),
        ("from math import isqrt, sqrt\nsqrt(4)\n", ["isqrt"]),
        ("from . import core\n", ["core"]),
        ("from __future__ import annotations\n", []),
        ("import os\nos.getcwd()\n", []),
        ("from math import isqrt\ndef f(n: int) -> int:\n    return isqrt(n)\n", []),
    ],
)
def test_guard_finds_unused_imports(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(state):\n    level = state.level\n    return 1\n", ["f:level"]),
        ("def f(xs):\n    a, b = xs\n    return a\n", ["f:b"]),
        ("def f(xs):\n    for x in xs:\n        y = x\n", ["f:y"]),
        ("def f():\n    try:\n        pass\n    except ValueError as exc:\n        pass\n",
         ["f:exc"]),
        ("def f():\n    def g():\n        pass\n", ["f:g"]),
        ("def f(xs):\n    _ = len(xs)\n", []),
        ("def f(xs):\n    n = 0\n    n += len(xs)\n    return n\n", []),
        ("def f():\n    x = 1\n    def g():\n        return x\n    return g\n", []),
        ("def f(xs):\n    return [y for y in xs]\n", []),
        ("def f():\n    global G\n    G = 1\n", []),
    ],
)
def test_guard_finds_unused_locals(source, expected):
    assert unused_locals(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("X = 1\ndef f():\n    pass\nclass C:\n    Y = 2\n", ["X", "f", "C"]),
        ("A, (B, C) = 1, (2, 3)\nD: int = 4\n", ["A", "B", "C", "D"]),
        ("__all__ = []\nif True:\n    Z = 1\n", []),
    ],
)
def test_guard_finds_top_level_names(source, expected):
    assert top_level_names(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("f(x)\n", {"f", "x"}),
        ("obj.attr\n", {"obj", "attr"}),
        ("obj.attr = 1\n", {"obj"}),
        ("from m import a as b\n", {"a"}),
        ("X = 1\n", set()),
    ],
)
def test_guard_finds_names_read(source, expected):
    assert names_read(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .core import State, _hidden\n", ["State"]),
        ("from .a import x as y\nimport os\nif True:\n    from .b import z\n", ["y"]),
    ],
)
def test_guard_finds_public_imports(source, expected):
    assert public_imports(source) == expected
