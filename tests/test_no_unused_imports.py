"""Every name imported into a ``src/velo`` module is used in that module.

``__init__.py`` is exempt: it imports names to re-export them.  A name is
used when it is read (directly or as the base of an attribute) or spelled as
a string, such as a quoted annotation.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "velo"


def _imported(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, ``__future__`` features aside."""
    return [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = _read(tree)
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in read]
    assert not unused, "imported names that their module never uses: " + ", ".join(unused)
