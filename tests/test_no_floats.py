"""No floating point enters the numeric core.

Every module in ``src/velo`` except ``svg.py``, which draws pixels, must do
without ``float(`` calls, float literals and ``math.sqrt``: velocities,
norms and polytopes are exact ``Fraction`` and integer values.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "velo"


def _float_uses(tree: ast.Module):
    """(line, text) of each float call, float literal and math.sqrt under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float("
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name == "sqrt" for alias in node.names):
            yield node.lineno, "from math import sqrt"


def test_no_floating_point_outside_svg():
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "svg.py"
        for line, text in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "floating point in the numeric core: " + ", ".join(found)


def test_the_check_sees_floats():
    sample = "import math\nfrom math import sqrt\nx = float(1) + 0.5 + math.sqrt(2)\n"
    assert sorted(text for _, text in _float_uses(ast.parse(sample))) == [
        "0.5", "float(", "from math import sqrt", "math.sqrt"]
