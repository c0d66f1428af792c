"""Every name that ``velo`` exports is reached by the CLI, the acceptance suite or the benchmark.

A name in ``velo.__all__`` must be read (as a name or an attribute) in some
``src/velo`` module other than ``__init__.py``, be imported from ``velo`` by
``tests/test_acceptance.py``, or be the ``<function>`` part of a per-layer
metric ``<module>.<function>.<kind>`` in ``BENCHMARK.json``.  Other tests do
not count, so a public function kept alive only by its own tests fails here.
"""
from __future__ import annotations

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "velo"


def _read(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_from_velo(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "velo"
        for alias in node.names
    }


def test_every_public_name_is_reached():
    import velo

    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            read |= _read(ast.parse(path.read_text(), str(path)))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    imported = _imported_from_velo(ast.parse(acceptance.read_text(), str(acceptance)))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    benchmarked = {parts[1] for m in metrics if len(parts := m["name"].split(".")) == 3}
    dead = sorted(set(velo.__all__) - read - imported - benchmarked)
    assert not dead, "public names that nothing but their own tests reaches: " + ", ".join(dead)
