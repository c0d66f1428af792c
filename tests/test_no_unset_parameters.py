"""Every defaulted parameter of a public callable is set by some call.

For each callable in ``velo.__all__``, a parameter with a default must be
passed by some call of that name (as a name or an attribute) in
``src/velo``, ``tests`` or ``perfbench``: by keyword, or by position past the
required parameters.  A call that unpacks ``*args`` or ``**kwargs`` counts
as passing every parameter it could reach.  A default that no caller ever
overrides is a dead setting: the function should just use the value.
"""
from __future__ import annotations

import ast
import inspect
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "velo", ROOT / "tests", ROOT / "perfbench")
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the scanned trees, by the name it calls."""
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call) and (name := _callee(node)):
                    calls[name].append(node)
    return calls


def _sets(call: ast.Call, index: int | None, param: str) -> bool:
    """Whether ``call`` passes ``param``, the ``index``-th positional parameter
    (None when it is keyword-only)."""
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def _unset(public: dict[str, object], calls: dict[str, list[ast.Call]]) -> list[str]:
    """``name.param`` for each defaulted parameter of ``public`` that no call sets."""
    unset = []
    for name, obj in sorted(public.items()):
        if not callable(obj):
            continue
        try:
            params = list(inspect.signature(obj).parameters.values())
        except ValueError:  # an exception class keeps its builtin constructor
            continue
        positional = [p.name for p in params if p.kind in POSITIONAL]
        for p in params:
            if p.default is inspect.Parameter.empty:
                continue
            index = positional.index(p.name) if p.name in positional else None
            if not any(_sets(call, index, p.name) for call in calls.get(name, ())):
                unset.append(f"{name}.{p.name}")
    return unset


def test_every_defaulted_parameter_is_set_somewhere():
    import velo

    unset = _unset({name: getattr(velo, name) for name in velo.__all__}, _calls())
    assert not unset, "parameters that no call sets: " + ", ".join(unset)


def test_the_check_sees_keyword_positional_and_unpacked_calls():
    def f(a, b=1, *, c=2):
        pass

    def unset(source: str) -> list[str]:
        calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
        return _unset({"f": f, "n": 3}, {"f": calls})

    assert unset("") == ["f.b", "f.c"]
    assert unset("f(0)") == ["f.b", "f.c"]
    assert unset("m.f(0, 5)") == ["f.c"]
    assert unset("f(0, c=5)") == ["f.b"]
    assert unset("f(0, 5, c=5)") == []
    assert unset("f(*args)") == ["f.c"]
    assert unset("f(0, **kw)") == []
