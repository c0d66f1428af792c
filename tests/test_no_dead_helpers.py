"""Every private helper in ``src/velo`` is used somewhere in ``src/velo``.

A private name (one leading underscore, not a dunder) defined as a
module-level function, class or constant, or as a method or cached property
of a class, must be referenced outside its own definition: as a name, an
attribute, an imported name or a string (``getattr``, ``__dict__`` keys).
Tests do not count, so a helper kept alive only by its tests fails here.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "velo"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _references(node: ast.AST) -> Counter[str]:
    """How often each name is read under ``node``."""
    refs: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _definitions(tree: ast.Module):
    """(name, node) of each private module-level function, class or constant,
    and of each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield member.name, member


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    everywhere: Counter[str] = Counter()
    for tree in trees.values():
        everywhere += _references(tree)
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if _is_private(name) and everywhere[name] - _references(node)[name] <= 0
    ]
    assert not dead, "private names that nothing in src/velo uses: " + ", ".join(dead)
