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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_definitions(source):
    """The private module-level functions, classes and assignments of
    ``source``, and the private methods of its classes, as (line, name)."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            defined += [(item.lineno, item.name) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted((line, name) for line, name in defined if _private(name))


def read_names(source):
    """Every name and attribute an expression of ``source`` reads."""
    tree = ast.parse(source)
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return _read_names(tree) | attributes


def unread_private_names(sources):
    """Each ``(file, line, name)`` of ``sources`` (file name -> text) that
    defines a private name no file of ``sources`` reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted((file, line, name) for file, source in sources.items()
                  for line, name in private_definitions(source) if name not in read)


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_scan_sees_methods_and_annotations():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_Row = tuple[int, int]\n"
            "class _Box:\n"
            "    def __init__(self):\n"
            "        self._n = _LIMIT\n"
            "    def _used(self):\n"
            "        return self._n\n"
            "    def _unused(self):\n"
            "        return self._used()\n"
            "def _stale(x: '_Row'):\n"
            "    return _Box\n"
        ),
        "b.py": "_dead: int = 0\ndef public():\n    return _stale\n",
    }
    assert unread_private_names(sources) == [("a.py", 8, "_unused"), ("b.py", 1, "_dead")]
