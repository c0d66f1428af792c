"""Every CLI failure goes through ``_fail``.

The exit-status contract of ``velo`` (1 input error, 2 budget, 3 verdict) is
written in one place: outside the function ``_fail``, no string literal in
``src/velo/cli.py`` starts with ``error:``, and no f-string's leading literal
part does either.
"""
from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "velo" / "cli.py"


def _error_strings(tree: ast.Module):
    """Line of each string literal or f-string head under ``tree`` that starts
    with ``error:``, outside the function ``_fail``."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_fail" for node in ast.walk(fn)}
    exempt |= {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
               for part in node.values[1:]}  # f-string parts after the head
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("error:") and id(node) not in exempt):
            yield node.lineno


def test_error_lines_are_written_only_by_fail():
    found = sorted(_error_strings(ast.parse(CLI.read_text(), str(CLI))))
    assert not found, "error: written outside _fail at cli.py:" + ", ".join(map(str, found))


def test_the_check_sees_error_strings():
    sample = (
        'def _fail(message):\n    print(f"error: {message}")\n'
        'print("error: a")\n'
        'print(f"error: {b}")\n'
        'print(f"{prog}: error: {c}")\n'
        'print(f"{d}error: e")\n'
    )
    assert sorted(_error_strings(ast.parse(sample))) == [3, 4]
