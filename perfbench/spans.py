"""Per-layer tracing by rebinding velo's public functions to timing wrappers.

Each public function defined in a velo module is replaced, in every velo
namespace that holds it, by a wrapper that records a span (id, parent, name,
start, end) and adds its duration to its name's total and, as child time, to
its caller's.  Self time is duration minus child time.  The layer of a span is
the module that defines the function.  Counts come from arguments and return
values only.  Private helpers are not wrapped, so their time is their
caller's self time (for example graph._tarjan inside enumerate_cycles).
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000  # spans kept for the span file; totals count every span
LAYERS = ("cli", "cycles", "invariants", "geometry", "linprog", "intlattice",
          "graph", "realize", "dynamics")


def _len(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _cells(args, kwargs) -> int:
    cost = kwargs.get("cost", args[0] if args else ())
    rows = kwargs.get("rows", args[1] if len(args) > 1 else ())
    return len(rows) * len(cost)


def _text_bytes(args, kwargs) -> int:
    text = kwargs.get("text", args[0] if args else "")
    return len(text.encode() if isinstance(text, str) else text)


# span name -> {counter: f(args, kwargs, result)}
COUNTERS = {
    "cycles.enumerate_cycles": {"cycles_out": lambda a, k, r: len(r)},
    "cycles.basic_velocities": {"velocities_out": lambda a, k, r: len(r)},
    "geometry.convex_hull": {
        "points_in": lambda a, k, r: _len(k.get("points", a[0] if a else ())),
        "vertices_out": lambda a, k, r: len(r.vertices),
        "facets_out": lambda a, k, r: len(r.facets or ()),
    },
    "linprog.solve_standard_lp": {"cells": lambda a, k, r: _cells(a, k)},
    "intlattice.lattice_rank_and_index": {"rows_in": lambda a, k, r: _len(a[0] if a else k["rows"])},
    "graph.parse_dgf": {"bytes": lambda a, k, r: _text_bytes(a, k)},
    "graph.unroll": {"window_nodes": lambda a, k, r: r.vertex_count},
    "realize.realize": {"vertices_out": lambda a, k, r: len(r.vertices),
                        "edges_out": lambda a, k, r: len(r.edges)},
    "dynamics.schedule": {"steps_out": lambda a, k, r: len(r)},
}


# metric name -> the span name and kind it is computed from
ALIASES = {
    "cli.calls": "cli.main.calls",
    "cycles.enumerations_per_job": "cycles.enumerate_cycles.calls",
    "linprog.tableau_cells": "linprog.solve_standard_lp.cells",
    "realize.vertices_out": "realize.realize.vertices_out",
    "realize.edges_out": "realize.realize.edges_out",
    "dynamics.steps_out": "dynamics.schedule.steps_out",
}


class Tracer:
    """Installs timing wrappers into the loaded velo modules; `remove` restores them."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.cycles_in_basic = 0  # cycles enumerated on behalf of basic_velocities
        self._stack: list[list] = []  # [span id, name, child time]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()  # span names of every wrapped function

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[2]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent[0] if parent else -1, name, start, end))
            for counter, count in counters.items():
                self.counts[f"{name}.{counter}"] += count(args, kwargs, result)
            if name == "cycles.enumerate_cycles" and parent and parent[1] == "cycles.basic_velocities":
                self.cycles_in_basic += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "velo" or n.startswith("velo."))}
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod_name
                        and not attr.startswith("_")):
                    name = f"{mod_name.split('.')[-1]}.{attr}"
                    wrappers[obj] = self._wrap(name, obj)
                    self.wrapped.add(name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def layer_metrics(self, names, jobs: int) -> dict[str, float]:
        """The named per-layer metrics; times and counts are per job of the traced run.

        A name is `<layer>.self_s` or `<layer>.self_share` (all functions of the
        layer), `<module>.<function>.self_s` or `.calls`, a COUNTERS total
        `<module>.<function>.<counter>`, an ALIASES name, or
        `cycles.velocities_per_cycle`.  `trace.overhead_frac` is left to the caller."""
        per = 1.0 / jobs
        layer_self = defaultdict(float)
        for name, t in self.self_time.items():
            layer_self[name.split(".")[0]] += t
        grand = sum(layer_self.values()) or 1.0
        out: dict[str, float] = {}
        for metric in names:
            stem, _, kind = ALIASES.get(metric, metric).rpartition(".")
            if metric == "cycles.velocities_per_cycle":
                velocities = self.counts["cycles.basic_velocities.velocities_out"]
                out[metric] = velocities / self.cycles_in_basic if self.cycles_in_basic else 0.0
            elif stem in LAYERS and kind in ("self_s", "self_share"):
                out[metric] = layer_self[stem] * (per if kind == "self_s" else 1 / grand)
            elif kind == "self_s" and stem in self.wrapped:
                out[metric] = self.self_time[stem] * per
            elif kind == "calls" and stem in self.wrapped:
                out[metric] = self.calls[stem] * per
            elif kind in COUNTERS.get(stem, ()):
                out[metric] = self.counts[f"{stem}.{kind}"] * per
            elif metric != "trace.overhead_frac":
                raise ValueError(f"no per-layer metric is called {metric!r}")
        return out

    def write(self, spans_path: str, table_path: str, metrics: dict) -> None:
        with open(spans_path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
        table = {name: {"calls": self.calls[name], "total_s": self.total[name],
                        "self_s": self.self_time[name]} for name in sorted(self.calls)}
        with open(table_path, "w") as fh:
            json.dump({"per_function": table, "per_layer": metrics,
                       "spans_kept": len(self.spans), "spans_total": self._next_id}, fh, indent=1)
