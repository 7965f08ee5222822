"""Span tracer for the platemem CLI, installed from outside the package.

`Tracer.install()` replaces every binding of each traced public function in
the loaded `platemem` modules with a wrapper that records a span: name,
start, end, parent span and a few attributes (the pencil dimension
`3*n_plate + 2*n_mem` where there is one).  A function imported into several
modules (`assemble_mode_pencil` lives in pencil, spectral, stability, cli and
the package root) is wrapped at each of those names.  `parallel_map` is
wrapped so that work done in worker threads is parented to the map's span.
Spans stay in memory until the process ends.

`layer_metrics()` turns a list of spans into the per-layer metrics of the
benchmark.  Self time is a span's duration minus the union of its children's
intervals, so time spent in overlapping worker threads is not subtracted
twice.
"""
from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import threading
import time

import numpy as np

BOOKKEEPING = ("semigroup.energy", "semigroup.dissipation",
               "semigroup.pencil_dissipation", "semigroup.graph_norm")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pencil_dim(args, kwargs):
    return {"dim": _arg(args, kwargs, 0, "pencil").dim}


def _grid_dim(args, kwargs):
    return {"dim": 3 * _arg(args, kwargs, 1, "n_plate") + 2 * _arg(args, kwargs, 2, "n_mem")}


def _assembled(args, kwargs, pencil):
    grid = pencil.grid
    return {"dim": pencil.dim,
            "key": [grid.mode, grid.n_plate, grid.n_mem, repr(_arg(args, kwargs, 0, "p"))]}


def _eigen_lookup(args, kwargs):
    pencil = _arg(args, kwargs, 0, "pencil")
    return {"dim": pencil.dim, "solve": "spectrum" not in getattr(pencil, "_cache", {})}


def _cn_steps(args, kwargs, trace):
    return {"steps": len(trace.times) - 1}


def _nudged(args, kwargs, scan):
    grid = np.linspace(_arg(args, kwargs, 1, "lambda_min"), _arg(args, kwargs, 2, "lambda_max"),
                       _arg(args, kwargs, 3, "n_samples"))
    return {"nudged": int(np.count_nonzero(scan.lambdas != grid))}


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, function) -> (span name, attributes known before the call,
#                        attributes known from the result)
TRACED = {
    ("platemem.cli", "main"): ("cli", None, None),
    ("platemem.config", "load_config"): ("config.load", None, None),
    ("platemem.grid", "build_radial_grid"): ("grid.build", _grid_dim, None),
    ("platemem.pencil", "assemble_mode_pencil"): ("pencil.assemble", None, _assembled),
    ("platemem.semigroup", "simulate"): ("semigroup.simulate", _pencil_dim, _cn_steps),
    ("platemem.semigroup", "energy"): ("semigroup.energy", _pencil_dim, None),
    ("platemem.semigroup", "dissipation"): ("semigroup.dissipation", _pencil_dim, None),
    ("platemem.semigroup", "pencil_dissipation"):
        ("semigroup.pencil_dissipation", _pencil_dim, None),
    ("platemem.semigroup", "graph_norm"): ("semigroup.graph_norm", _pencil_dim, None),
    ("platemem.semigroup", "make_initial_data"): ("semigroup.initial_data", _pencil_dim, None),
    ("platemem.spectral", "eigenvalues"): ("spectral.eigenvalues", _eigen_lookup, None),
    ("platemem.spectral", "spectral_abscissa_sweep"): ("spectral.sweep", None, None),
    ("platemem.spectral", "project_resolvable"): ("spectral.project_resolvable", _pencil_dim, None),
    ("platemem.spectral", "resolvent_norm"): ("spectral.resolvent_norm", _pencil_dim, None),
    ("platemem.spectral", "resolvent_scan"): ("spectral.resolvent_scan", _pencil_dim, _nudged),
    ("platemem.stability", "fit_exponential_rate"): ("stability.fit", None, None),
    ("platemem.stability", "fit_polynomial_rate"): ("stability.fit", None, None),
    ("platemem.stability", "run_regime_experiment"): ("stability.regime_experiment", None, None),
    ("platemem.util", "write_csv"): ("util.write_csv", None, _file_size),
}


class _Span:
    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.id)
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.monotonic()
        self.tracer._stack().pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        # list.append is atomic, so worker threads may record concurrently
        self.tracer.spans.append([self.id, self.parent, self.name, self.start, end, self.attrs])


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sites: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, attrs: dict | None = None) -> _Span:
        return _Span(self, name, {} if attrs is None else attrs)

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, before(args, kwargs) if before else None) as span:
                result = fn(*args, **kwargs)
                if after:
                    span.attrs.update(after(args, kwargs, result))
                return result
        return traced

    def wrap_parallel_map(self, parallel_map):
        @functools.wraps(parallel_map)
        def traced(fn, items):
            items = list(items)
            with self.span("util.parallel_map", {"items": len(items)}) as span:
                waits: list[float] = []

                def item(x):
                    # items run in pool threads (or inline): parent them to the map
                    waits.append(time.monotonic() - span.start)
                    saved = self._stack()
                    self._local.stack = [span.id]
                    try:
                        return fn(x)
                    finally:
                        self._local.stack = saved

                result = parallel_map(item, items)
                span.attrs["wait_s"] = sum(waits)
                return result
        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded platemem modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "platemem" or n.startswith("platemem.")]
        wrappers = {}
        for (mod, fn_name), (name, before, after) in TRACED.items():
            orig = getattr(sys.modules[mod], fn_name)
            wrappers[f"{mod}.{fn_name}"] = (orig, self.wrap(name, orig, before, after))
        orig = sys.modules["platemem.util"].parallel_map
        wrappers["platemem.util.parallel_map"] = (orig, self.wrap_parallel_map(orig))
        for qualname, (orig, wrapped) in wrappers.items():
            sites = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"no binding of {qualname} found to trace")
            self.sites[qualname] = sites


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _attrs in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _attrs in spans:
        kids = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        out[sid] = (end - start) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metric values (all but trace.overhead_s) and a per-(span, dim) table."""
    selfs = self_times(spans)
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in by_name.get(name, ()))

    assembled = by_name.get("pencil.assemble", [])
    distinct = len({tuple(s[5]["key"]) for s in assembled if "key" in s[5]})
    norm_ms = [1e3 * (s[4] - s[3]) for s in by_name.get("spectral.resolvent_norm", ())]
    m = {
        "pencil.assemble.calls": calls("pencil.assemble"),
        "pencil.assemble.distinct": distinct,
        "pencil.assemble.reuse_ratio": distinct / len(assembled) if assembled else 0.0,
        "pencil.assemble.self_s": self_s("pencil.assemble"),
        "grid.build.self_s": self_s("grid.build"),
        "semigroup.simulate.calls": calls("semigroup.simulate"),
        "semigroup.cn_steps": attr_sum("semigroup.simulate", "steps"),
        "semigroup.simulate.self_s": self_s("semigroup.simulate"),
        "semigroup.graph_norm.self_s": self_s("semigroup.graph_norm"),
        "semigroup.bookkeeping.self_s": sum(self_s(n) for n in BOOKKEEPING),
        "semigroup.initial_data.self_s": self_s("semigroup.initial_data"),
        "spectral.eigenvalues.calls": calls("spectral.eigenvalues"),
        "spectral.eigenvalues.solves": attr_sum("spectral.eigenvalues", "solve"),
        "spectral.eigenvalues.self_s": self_s("spectral.eigenvalues"),
        "spectral.sweep.self_s": self_s("spectral.sweep"),
        "spectral.project_resolvable.calls": calls("spectral.project_resolvable"),
        "spectral.project_resolvable.self_s": self_s("spectral.project_resolvable"),
        "spectral.resolvent_norm.calls": len(norm_ms),
        "spectral.resolvent_norm.self_s": self_s("spectral.resolvent_norm"),
        "spectral.resolvent_norm.p50_ms": statistics.median(norm_ms) if norm_ms else 0.0,
        "spectral.resolvent_scan.self_s": self_s("spectral.resolvent_scan"),
        "spectral.resolvent_scan.nudged": attr_sum("spectral.resolvent_scan", "nudged"),
        "stability.fit.calls": calls("stability.fit"),
        "stability.fit.self_s": self_s("stability.fit"),
        "stability.regime_experiment.self_s": self_s("stability.regime_experiment"),
        "util.parallel_map.items": attr_sum("util.parallel_map", "items"),
        "util.parallel_map.wait_s": attr_sum("util.parallel_map", "wait_s"),
        "util.write_csv.bytes": attr_sum("util.write_csv", "bytes"),
        "util.write_csv.self_s": self_s("util.write_csv"),
        "config.load.self_s": self_s("config.load"),
        "cli.self_s": self_s("cli"),
    }
    for name in ("energy", "dissipation", "pencil_dissipation"):
        m[f"semigroup.{name}.calls"] = calls(f"semigroup.{name}")
        m[f"semigroup.{name}.self_s"] = self_s(f"semigroup.{name}")

    table: dict[tuple[str, int], dict] = {}
    for span in spans:
        row = table.setdefault((span[2], span[5].get("dim", 0)),
                               {"span": span[2], "dim": span[5].get("dim", 0),
                                "calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[span[0]]
    return m, sorted(table.values(), key=lambda r: -r["self_s"])
