"""Every name the package exports is used by the package itself.

A public name that only tests read belongs in ``tests/helpers.py``.  The
check parses ``src/ratassoc`` with ``ast`` and follows references from the
module-level code of every module but ``__init__``: a top-level ``def`` or
``class`` is live once live code names it, and then its body is live too.
A name met only inside its own body, or only in dead code, is not live."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ratassoc"


def _names(node: ast.AST) -> set[str]:
    """The names and attribute names ``node`` reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def _live() -> set[str]:
    """The names that the package's module-level code reads, directly or
    through the bodies of the live top-level definitions."""
    bodies: dict[str, list[ast.AST]] = {}
    todo: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
            else:
                todo += _names(node)
    live: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            for node in bodies.get(name, ()):
                todo += _names(node)
    return live


def test_every_export_is_used_by_the_package():
    exports = _exports()
    assert len(exports) > 40  # the parse found the export list
    assert sorted(exports - _live()) == []
