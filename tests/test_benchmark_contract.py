"""The benchmark's per-layer metrics name velo functions that a traced CLI run must find.

`perfbench/spans.py` wraps the public functions of the loaded velo modules
and rejects a metric `<module>.<function>.<self_s|calls>` whose function it
did not wrap, so each named function has to stay defined in a module that
`import velo.cli` loads.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """\
import inspect, json, sys
import velo.cli
missing = []
for module, name in json.loads(sys.argv[1]):
    mod = sys.modules.get("velo." + module)
    fn = getattr(mod, name, None)
    if mod is None or not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
        missing.append(module + "." + name)
print(json.dumps(missing))
"""


def test_layer_metrics_name_loaded_public_functions():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = sorted({
        tuple(m["name"].split(".")[:2]) for m in metrics
        if m["name"].count(".") == 2 and m["name"].rsplit(".", 1)[1] in ("self_s", "calls")
    })
    assert named and all(not name.startswith("_") for _, name in named)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(named)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_enumerate_cycles_returns_a_sized_tuple(honeycomb):
    # the traced run's `cycles_out` counter calls len() on what enumerate_cycles returns
    from velo.cycles import enumerate_cycles

    cycles = enumerate_cycles(honeycomb)
    assert isinstance(cycles, tuple) and len(cycles) == 9
