"""Spans and counters around chargelab's layers, for the traced run only.

`install(tracer)` wraps the public functions of each chargelab module and
rebinds every wrapper in each chargelab namespace that holds the original
(``seminorm_K`` lives in ``charges``, ``inequalities``, ``cli`` and the
package itself).  It also wraps the callbacks every ``GridField`` holds.
Untraced runs never call `install`, so they measure the unmodified program.

A span is one row of six columns: op id, span id, parent span id, name,
start and end (``time.perf_counter`` seconds).  Rows stay in compact arrays
until the run ends.  Counts (kernel queries, callback points, ...) are
added to a per-operation counter at the same boundaries.  Spans of one
thread nest properly, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> per-layer time metric that receives its self time
TIME_METRICS = {
    "windows.kernel": "windows.kernel_s",
    "windows.prefix": "windows.prefix_s",
    "windows.index_ranges": "windows.index_ranges_s",
    "charges.seminorm_K": "charges.hsup_s",
    "charges.seminorm_Kh": "charges.hsup_s",
    "charges.mask": "charges.mask_s",
    "charges.overlap": "charges.overlap_s",
    "steklov.deviation": "steklov.deviation_s",
    "grids.callback": "grids.callback_s",
    "grids.sweep": "grids.callback_s",
    "geometry.gauge": "geometry.gauge_s",
    "geometry.lattice": "geometry.lattice_s",
    "inequalities.mixed_deviation": "inequalities.mixed_deviation_s",
    "inequalities.sharpness": "inequalities.sharpness_s",
    "stechkin.recover": "stechkin.recover_s",
    "stechkin.sandwich": "stechkin.sandwich_s",
    "cli.output": "cli.output_s",
    "op": "unattributed_s",
}

# counts that must repeat exactly for a fixed seed
REPEAT_COUNTS = ("windows.kernel_queries", "charges.seminorm_Kh_calls",
                 "grids.callback_points", "golden.evals")

_CALLBACKS = ("value_fn", "grad_fn", "mixed_fn", "mixed_grad_fn")


class Tracer:
    """In-memory span table plus per-operation counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_col = array("q")
        self.sid_col = array("q")
        self.parent_col = array("q")
        self.name_col = array("q")
        self.t0_col = array("d")
        self.t1_col = array("d")
        self.counts: list[Counter] = []
        self._grids_seen: dict = {}  # id -> grid, for the running operation
        self._stack: list[tuple[int, str]] = []
        self._next_sid = 0
        self.op = -1

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _record(self, sid, parent, name, t0, t1):
        self.op_col.append(self.op)
        self.sid_col.append(sid)
        self.parent_col.append(parent)
        self.name_col.append(self._name_id(name))
        self.t0_col.append(t0)
        self.t1_col.append(t1)

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def add(self, key: str, n) -> None:
        if self._stack:
            self.counts[self.op][key] += n

    def add_cells(self, grid) -> None:
        """Count the cells of a field's grid once per operation (the grid is
        held until the operation ends, so its id cannot be reused)."""
        if self._stack and id(grid) not in self._grids_seen:
            self._grids_seen[id(grid)] = grid
            self.counts[self.op]["grids.cells"] += grid.size

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; outside an operation it runs untraced."""
        if not self._stack:
            return fn(*args, **kwargs)
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1][0]
        self._stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(sid, parent, name, t0, t1)

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span named "op"."""
        self.op = op_id
        while len(self.counts) <= op_id:
            self.counts.append(Counter())
        sid = self._next_sid
        self._next_sid += 1
        self._stack.append((sid, "op"))
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(sid, -1, "op", t0, t1)
            self._grids_seen.clear()

    # -- reduction --------------------------------------------------------

    def columns(self) -> dict:
        return {
            "op": np.frombuffer(self.op_col, dtype=np.int64),
            "sid": np.frombuffer(self.sid_col, dtype=np.int64),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64),
            "name": np.frombuffer(self.name_col, dtype=np.int64),
            "t0": np.frombuffer(self.t0_col, dtype=np.float64),
            "t1": np.frombuffer(self.t1_col, dtype=np.float64),
        }

    def op_metrics(self, ops) -> list[dict]:
        """Per-layer metrics of each listed operation."""
        cols = self.columns()
        selft = self_times(cols["sid"], cols["parent"], cols["t0"], cols["t1"])
        out = []
        for op in ops:
            sel = cols["op"] == op
            row = dict.fromkeys(set(TIME_METRICS.values()), 0.0)
            for name_id, st in zip(cols["name"][sel], selft[sel]):
                row[TIME_METRICS[self.names[name_id]]] += float(st)
            c = self.counts[op]
            queries = c["windows.kernel_queries"]
            cells = c["grids.cells"]
            row.update({
                "windows.kernel_calls": c["windows.kernel_calls"],
                "windows.kernel_queries": queries,
                "windows.kernel_ns_per_query": (
                    row["windows.kernel_s"] / queries * 1e9 if queries else 0.0),
                "windows.prefix_cells": c["windows.prefix_cells"],
                "charges.seminorm_Kh_calls": c["charges.seminorm_Kh_calls"],
                "charges.mask_windows": c["charges.mask_windows"],
                "charges.overlap_windows": c["charges.overlap_windows"],
                "grids.callback_points": c["grids.callback_points"],
                "grids.callback_points_per_cell": (
                    c["grids.callback_points"] / cells if cells else 0.0),
                "geometry.gauge_points": c["geometry.gauge_points"],
                "golden.evals": c["golden.evals"],
                "cli.output_bytes": c["cli.output_bytes"],
            })
            out.append(row)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def self_times(sid, parent, t0, t1) -> np.ndarray:
    """Self time of every span: duration minus the durations of its direct
    children.  Children of one span never overlap because spans of one
    thread nest, so their summed durations are the time they cover."""
    sid = np.asarray(sid, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float)
    if sid.size == 0:
        return dur
    pos = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
    pos[sid] = np.arange(sid.size)
    has_parent = parent >= 0
    child_sum = np.bincount(pos[parent[has_parent]], weights=dur[has_parent],
                            minlength=sid.size)
    return dur - child_sum


# -- wrappers ----------------------------------------------------------------


def _rebind(original, wrapper) -> int:
    """Replace `original` by `wrapper` in every chargelab namespace."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "chargelab" or modname.startswith("chargelab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def _wrap_function(module, attr: str, make):
    original = getattr(module, attr)
    wrapper = functools.wraps(original)(make(original))
    if _rebind(original, wrapper) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} not found")


def _wrap_method(cls, attr: str, make):
    original = cls.__dict__[attr]
    setattr(cls, attr, functools.wraps(original)(make(original)))


def _span(tr: Tracer, name: str, count=None):
    """Factory for a wrapper that records one span per call; `count`
    maps the call arguments to per-operation counts."""

    def make(fn):
        def wrapper(*args, **kwargs):
            if count is not None and tr._stack:
                for key, n in count(*args, **kwargs):
                    tr.add(key, n)
            return tr.call(name, fn, *args, **kwargs)

        return wrapper

    return make


def install(tr: Tracer) -> None:
    """Wrap chargelab's layers for tracing (call after importing chargelab)."""
    # cli is imported so that its namespace is rebound as well
    from chargelab import (charges, cli, geometry, golden, grids,  # noqa: F401
                           inequalities, report, stechkin, steklov, svgplot,
                           windows)

    # windows
    _wrap_function(windows, "box_window_sums", _span(
        tr, "windows.kernel",
        lambda prefix, i0s, i1s: [
            ("windows.kernel_calls", 1),
            ("windows.kernel_queries", int(np.prod([len(a) for a in i0s]))),
        ]))
    _wrap_function(windows, "build_prefix", _span(
        tr, "windows.prefix",
        lambda values: [("windows.prefix_cells", int(np.size(values)))]))
    _wrap_function(windows, "index_range", _span(tr, "windows.index_ranges"))
    _wrap_function(windows, "index_ranges_batch",
                   _span(tr, "windows.index_ranges"))

    # charges
    _wrap_function(charges, "seminorm_Kh", _span(
        tr, "charges.seminorm_Kh",
        lambda *a, **k: [("charges.seminorm_Kh_calls", 1)]))
    _wrap_function(charges, "seminorm_K", _span(tr, "charges.seminorm_K"))

    def make_window_value(fn):
        def wrapper(self, K, y, h, method="auto"):
            resolved = method
            if method == "auto":
                resolved = "prefix" if self._fast_path(K) else "mask"
            if resolved in ("mask", "overlap"):
                tr.add(f"charges.{resolved}_windows", 1)
                return tr.call(f"charges.{resolved}", fn, self, K, y, h, method)
            return fn(self, K, y, h, method)

        return wrapper

    _wrap_method(charges.Charge, "window_value", make_window_value)

    # steklov, inequalities, stechkin
    _wrap_function(steklov, "deviation_sup", _span(tr, "steklov.deviation"))
    _wrap_function(inequalities, "mixed_deviation_sup",
                   _span(tr, "inequalities.mixed_deviation"))
    _wrap_function(inequalities, "sharpness_search",
                   _span(tr, "inequalities.sharpness"))
    _wrap_function(stechkin, "recover_derivative", _span(tr, "stechkin.recover"))
    _wrap_function(stechkin, "recovery_error", _span(tr, "stechkin.recover"))
    _wrap_function(stechkin, "sandwich_check", _span(tr, "stechkin.sandwich"))

    def make_golden(fn):
        def wrapper(f, *args, **kwargs):
            def counted(x):
                tr.add("golden.evals", 1)
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapper

    _wrap_function(golden, "golden_min", make_golden)

    # geometry: gauges and the lattice quadratures
    def make_gauge(fn):
        def wrapper(self, X):
            if tr._stack and tr.parent_name() != "geometry.gauge":
                tr.add("geometry.gauge_points", int(np.shape(X)[0]))
            return tr.call("geometry.gauge", fn, self, X)

        return wrapper

    for attr in ("gauge_many", "gauge_gradient_many", "polar_norm_many"):
        _wrap_method(geometry.ConvexBody, attr, make_gauge)

    def make_lattice(method_pos, default_method):
        """`method_pos`: index of `method` among the arguments after K, C."""

        def make(fn):
            def wrapper(K, C, *args, **kwargs):
                if len(args) > method_pos:
                    method = args[method_pos]
                else:
                    method = kwargs.get("method", default_method)
                if method == "grid":
                    return tr.call("geometry.lattice", fn, K, C, *args, **kwargs)
                return fn(K, C, *args, **kwargs)

            return wrapper

        return make

    _wrap_function(geometry, "layer_cake_integral", make_lattice(1, "grid"))
    _wrap_function(geometry, "volume_body_cone", make_lattice(0, "exact"))

    # cli output
    def make_output(fn):
        def wrapper(path, *args, **kwargs):
            out = tr.call("cli.output", fn, path, *args, **kwargs)
            if tr._stack:
                tr.add("cli.output_bytes", os.path.getsize(path))
            return out

        return wrapper

    for mod, attr in ((report, "write_csv"), (report, "write_json"),
                      (svgplot, "render_plot")):
        _wrap_function(mod, attr, make_output)

    # grids: field callbacks and the center sweeps that feed them
    _install_grid_tracing(tr, grids.GridField)


def _wrap_callback(tr: Tracer, fn, grid):
    if fn is None or getattr(fn, "_lkbench_traced", False):
        return fn

    def callback(pts):
        if tr._stack and tr.parent_name() != "grids.callback":
            tr.add("grids.callback_points", int(np.shape(pts)[0]))
            tr.add_cells(grid)
        return tr.call("grids.callback", fn, pts)

    callback._lkbench_traced = True
    return callback


def _install_grid_tracing(tr: Tracer, GridField) -> None:
    post_init = GridField.__post_init__

    def traced_post_init(self):
        post_init(self)
        for attr in _CALLBACKS:
            setattr(self, attr, _wrap_callback(tr, getattr(self, attr), self.grid))

    GridField.__post_init__ = traced_post_init

    from_callback = GridField.__dict__["from_callback"].__func__

    def traced_from_callback(cls, grid, value_fn, **kw):
        value_fn = _wrap_callback(tr, value_fn, grid)
        kw = {k: (_wrap_callback(tr, v, grid) if k in _CALLBACKS else v)
              for k, v in kw.items()}
        return tr.call("grids.sweep", from_callback, cls, grid, value_fn, **kw)

    GridField.from_callback = classmethod(traced_from_callback)
    for attr in ("sup_abs", "check_callback_consistency"):
        _wrap_method(GridField, attr, _span(tr, "grids.sweep"))
