"""The certificate replay calls none of the schedule generator's kernels.

The check parses ``src/ratassoc`` with ``ast``.  It starts from the bodies
of ``StageReplay`` and ``verify_certificate`` and follows every name and
attribute name they read through the package's top-level ``def`` and
``class`` statements, as ``tests/test_exports.py`` does.  Annotations are
not followed: a type named in a signature is not called."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ratassoc"
KERNELS = {
    "_cone_batch", "_clique_count", "collapse_schedule",
    "clique_walk", "clique_complex", "maximal_cliques",
}


def _reads(node: ast.AST) -> set[str]:
    """The names and attribute names ``node`` reads outside annotations."""
    hidden = set()
    for n in ast.walk(node):
        for annotation in (getattr(n, "annotation", None), getattr(n, "returns", None)):
            if isinstance(annotation, ast.AST):
                hidden.update(map(id, ast.walk(annotation)))
    out = set()
    for n in ast.walk(node):
        if id(n) in hidden:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _reached(roots: list[str]) -> set[str]:
    """The top-level definitions of the package that ``roots`` reach."""
    bodies: dict[str, list[ast.AST]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in bodies and name not in reached:
            reached.add(name)
            for node in bodies[name]:
                todo += _reads(node)
    return reached


def test_the_replay_reaches_no_generator_kernel():
    reached = _reached(["StageReplay", "verify_certificate"])
    assert {"StageReplay", "verify_certificate", "bit_positions"} <= reached
    assert sorted(reached & KERNELS) == []


def test_the_generator_reaches_its_kernels():
    """The same walk finds the kernels from the generator, so an empty
    intersection above is not a walk that found nothing.  The generator
    counts its pairs with its own count, not with the homology walk."""
    reached = _reached(["collapse_schedule"])
    assert {"_cone_batch", "_clique_count", "clique_complex"} <= reached
    assert "clique_walk" not in reached
