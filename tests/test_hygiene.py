"""Static checks of the package sources, with the standard library only."""

import ast
from pathlib import Path

import flowgate

PACKAGE = Path(flowgate.__file__).parent


def _annotation_names(node):
    """The names a string annotation (``-> "Trace"``) reads."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _read_names(ast.parse(node.value, mode="eval"))
        except SyntaxError:
            return set()
    return set()


def _read_names(tree):
    """Every name an expression of ``tree`` reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
    return names


def unused_imports(source):
    """The names ``source`` imports that no expression of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = _read_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_read():
    # __init__.py imports names to re-export them.
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for unused in [unused_imports(path.read_text())] if unused
    }
    assert found == {}


def test_unused_import_scan_sees_through_annotations():
    source = (
        "from __future__ import annotations\n"
        "import heapq\n"
        "from typing import Optional\n"
        "from .model import Event, Trace, Command\n"
        "def f(x: Optional[Event]) -> 'Trace':\n"
        "    return heapq.heappop(x)\n"
    )
    assert unused_imports(source) == [(4, "Command")]
