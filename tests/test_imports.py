"""No module under ``src/hyperpoly`` imports a name it never uses.

A name counts as used where the scope that imports it, or a scope nested in
it, reads it; names inside string annotations count.  ``from __future__``
imports and the relative imports at the top of the package ``__init__``,
which re-export the public names, are not checked.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hyperpoly"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _read_names(tree) -> set:
    """Every name read under ``tree``, those in string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # a function's return annotation; an argument's or a variable's
        annotations = (getattr(node, "returns", None), getattr(node, "annotation", None))
        for part in (part for a in annotations if a for part in ast.walk(a)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _read_names(ast.parse(part.value, mode="eval"))
    return names


def _imports(scope):
    """(statement, bound name) for each import made in ``scope`` itself,
    not in a function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((node, a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                yield from ((node, a.asname or a.name) for a in node.names)
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        read = _read_names(scope)
        for node, name in _imports(scope):
            reexport = filename == "__init__.py" and scope is tree and getattr(node, "level", 0)
            if name not in read and not reexport:
                unused.append(f"{filename}:{node.lineno}: {name}")
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(), path.name) == []


def test_the_check_reads_scopes_and_string_annotations():
    source = '''
from __future__ import annotations
import math
import os.path
from collections.abc import Sequence
from .core import Element, FiniteSet

def f(xs: "Sequence[Element]") -> None:
    import json
    from .core import INF
    return os.path.join(*xs), INF

def g():
    return json
'''
    assert unused_imports(source, "m.py") == ["m.py:3: math", "m.py:6: FiniteSet",
                                              "m.py:9: json"]
    assert unused_imports("from .core import INF\n", "__init__.py") == []
