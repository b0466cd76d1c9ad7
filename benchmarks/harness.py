"""The front end, timer and call counter that every bench_*.py script shares.

A script defines its rows and a `measure(args)` that returns its sections
(section name -> figures), then calls `main`, which takes four flags:

    --src DIR         the directory holding the chargelab package to time
                      (say, the parent commit's `src`)
    --label L         "before" or "after": store the figures in the --out
                      file under this label
    --out FILE        the BENCH file --label writes (each script names its
                      own BENCH_<topic>.json as the default)
    --lkbench F ...   lkbench result files to store under --label;
                      `lkbench/run.py` leaves them as
                      .lkbench_out/<workload>-seed<seed>-trace<0|1>.json

`main` prints each row as a JSON line after its section's name.  With
--label it merges into the --out file: every section maps each label to its
figures, "environment" maps each label to the Python, NumPy and SciPy
versions, the processor count and the machine, and "lkbench" holds the
metric units and each label's runs.  Once both labels hold runs of one
workload, trace level and seed, "lkbench" also gets a "comparison": per
metric, the median and quartiles of each side and how many seed pairs the
"after" side wins.  The file holds no before/after ratio of the rows: each
side's figures come from one process run at its own time, so their ratio
would carry the host's speed phase as well as the change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LKBENCH_NAME = re.compile(r"(?P<workload>[\w-]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}
ALL_STATS = ("best", "q1", "median", "q3")


def timed(fn, repeats=1, warmup=False):
    """fn's last result and the wall times in seconds of `repeats` calls,
    after one untimed call if `warmup`."""
    if warmup:
        fn()
    out, times = None, []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summary(times, unit="ms", stats=("best", "median")):
    """The `stats` (of ALL_STATS) of wall times in seconds, as row entries
    `<stat>_<unit>`."""
    q1, med, q3 = quartiles(times)
    value = {"best": min(times), "q1": q1, "median": med, "q3": q3}
    return {f"{s}_{unit}": UNITS[unit] * value[s] for s in stats}


class Calls:
    """Counts the calls of `module.<name>` made inside the with block."""

    def __init__(self, module, name):
        self.module, self.name, self.calls = module, name, 0

    def __enter__(self):
        inner = self.inner = getattr(self.module, self.name)

        def counted(*a, **k):
            self.calls += 1
            return inner(*a, **k)

        setattr(self.module, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.inner)


def run(cmd, env, cwd=None, ok=(0,)) -> subprocess.CompletedProcess:
    """Run cmd; stop the benchmark unless its exit code is in `ok`."""
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)
    if proc.returncode not in ok:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def environment():
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def compare(lk):
    """Per workload, trace level and metric: both sides' quartiles and
    median, and the number of seed pairs in which "after" reads lower.  A
    workload and trace whose two sides share no seed is left out, with a
    message naming both sides' seeds."""
    out = {}
    before, after = lk.get("before", []), lk.get("after", [])
    keys = sorted({(r["workload"], r["trace"]) for r in before}
                  & {(r["workload"], r["trace"]) for r in after})
    for workload, trace in keys:
        b = {r["seed"]: r for r in before
             if (r["workload"], r["trace"]) == (workload, trace)}
        a = {r["seed"]: r for r in after
             if (r["workload"], r["trace"]) == (workload, trace)}
        seeds = sorted(set(a) & set(b))
        if not seeds:
            print(f"lkbench {workload} trace={trace}: no seed in both sides "
                  f"(before {sorted(b)}, after {sorted(a)}); not compared",
                  file=sys.stderr)
            continue
        metrics = {}
        for m in b[seeds[0]]["metrics"]:
            bv = [b[s]["metrics"][m] for s in seeds]
            av = [a[s]["metrics"][m] for s in seeds]
            bq, aq = quartiles(bv), quartiles(av)
            metrics[m] = {
                "unit": lk["units"][m],
                "before_q1_median_q3": bq, "after_q1_median_q3": aq,
                "after_wins": sum(x < y for x, y in zip(av, bv)),
                "ties": sum(x == y for x, y in zip(av, bv)),
                "pairs": len(seeds),
                "median_change": (aq[1] - bq[1]) / bq[1] if bq[1] else None,
            }
        out[f"{workload} trace={trace}"] = {"seeds": seeds, "metrics": metrics}
    return out


def read_lkbench(paths, units):
    """Runs from lkbench result files; fills `units` (metric -> unit)."""
    runs = []
    for p in map(Path, paths):
        m = LKBENCH_NAME.search(p.name)
        if not m:
            raise SystemExit(f"{p}: not an lkbench result file name")
        res = json.loads(p.read_text())
        if not res["correct"] or res["failed"]:
            raise SystemExit(f"{p}: run had failed or incorrect operations")
        runs.append({"workload": m["workload"], "seed": int(m["seed"]),
                     "trace": int(m["trace"]), "attempted": res["attempted"],
                     "failed": res["failed"], "kernel": res["versions"]["kernel"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        units.update((k, v["unit"]) for k, v in res["metrics"].items())
    return runs


def store(out: Path, label, sections, lkbench=(), merge=None):
    """Merge one labelled run into the BENCH file `out`; `merge(bench,
    label)` adds what a script derives from the stored sections."""
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("environment", {})[label] = environment()
    for name, figures in sections.items():
        bench.setdefault(name, {})[label] = figures
    if merge:
        merge(bench, label)
    if lkbench:
        lk = bench.setdefault("lkbench", {})
        lk[label] = read_lkbench(lkbench, lk.setdefault("units", {}))
        lk["comparison"] = compare(lk)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")


def main(doc, bench_name, measure, argv=None, merge=None) -> int:
    """A script's entry point: parse the four flags, put --src first on
    sys.path, print `measure(args)`'s rows and, with --label, store them in
    the --out file (ROOT/bench_name by default)."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the chargelab package to time")
    ap.add_argument("--label", choices=("before", "after"), default=None,
                    help="store the figures in the --out file under this label")
    ap.add_argument("--out", default=str(ROOT / bench_name),
                    help="BENCH file that --label writes (default: %(default)s)")
    ap.add_argument("--lkbench", nargs="*", default=[],
                    help="lkbench result files to store under --label")
    args = ap.parse_args(argv)
    if args.lkbench and not args.label:
        ap.error("--lkbench needs --label")

    args.src = str(Path(args.src).resolve())
    sys.path.insert(0, args.src)
    sections = measure(args)
    for name, figures in sections.items():
        rows = figures["rows"] if isinstance(figures, dict) and "rows" in figures else figures
        for row in rows if isinstance(rows, list) else [rows]:
            print(name, json.dumps(row), flush=True)
    if args.label:
        store(Path(args.out), args.label, sections, args.lkbench, merge)
    return 0


# -- cases that bench_windows and bench_sweeps both time -------------------


def criterion01_seconds():
    """Wall time of acceptance criterion 01's layer-cake calls."""
    from chargelab import Cone, ConvexBody, layer_cake_integral

    cases = [(d, m, h, n) for d in (1, 2, 3) for m in range(d + 1)
             for h in (0.5, 1.0, 2.0) for n in (256, 64, 128)]
    _, (seconds,) = timed(lambda: [
        layer_cake_integral(ConvexBody.box(d), Cone.orthant(d, m), h, n=n)
        for d, m, h, n in cases])
    return seconds


# body, d, m, cells per axis, timed calls (single-window cases, h = 1)
SINGLE_CASES = [("box", 3, 1, 64, 200), ("ball", 2, 0, 24, 500),
                ("hexagon", 2, 0, 24, 500), ("ball", 3, 0, 96, 50)]


def hexagon():
    """The regular hexagon with circumradius 1 and a vertex at (1, 0)."""
    from chargelab import ConvexBody

    return ConvexBody.polytope(2, vertices=[
        (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)])


def own_gauge(name, X):
    """The bench's own gauges of the points X (shape (..., d)): the max norm,
    the Euclidean norm, and the regular hexagon with circumradius 1 (facet
    normals at pi/6 + k pi/3, inradius sqrt(3)/2)."""
    if name == "box":
        return np.abs(X).max(axis=-1)
    if name == "ball":
        return np.sqrt((X * X).sum(axis=-1))
    angles = math.pi / 6 + np.arange(6) * math.pi / 3
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return (X @ normals.T).max(axis=-1) / (math.sqrt(3) / 2)


def origin_window(name, grid, m, h):
    """Midpoint sum of (h - |x|)_+ over the centers x with |x| < h and
    x_k > 0 for k < m: the origin's window on the extremal density."""
    X = np.stack(np.meshgrid(*[grid.axis_centers(k) for k in range(grid.d)],
                             indexing="ij"), axis=-1)
    g = own_gauge(name, X)
    inside = (g < h) & np.all(X[..., :m] > 0, axis=-1)
    return float(np.where(inside, h - g, 0.0).sum()) * grid.cell_volume


def extremal_case(name, d, m, n, h):
    from chargelab import Cone, ConvexBody, GridSpec, extremal_charge

    if name == "hexagon":
        K = hexagon()
    else:
        K = ConvexBody.box(d) if name == "box" else ConvexBody.pball(d, 2.0)
    grid = GridSpec.for_cone(d, m, h, n, margin=0.25 * h)
    return K, extremal_charge(K, Cone.orthant(d, m), h, grid)


def single_window_rows():
    """One `Charge.window_value` at the origin per SINGLE_CASES case, each
    checked against the independent `origin_window` sum."""
    h = 1.0
    rows = []
    for name, d, m, n, repeats in SINGLE_CASES:
        K, nu = extremal_case(name, d, m, n, h)
        origin = origin_window(name, nu.density.grid, m, h)
        y = np.zeros(d)
        # the first call also builds whatever the charge caches
        value = nu.window_value(K, y, h).value
        if abs(value - origin) > 1e-9 * abs(origin):
            raise SystemExit(f"window_value {name} d={d} n={n}: {value!r}, "
                             f"origin window sum {origin!r}")
        _, times = timed(lambda: nu.window_value(K, y, h), repeats)
        rows.append({"case": f"window_value origin {name} d={d} m={m} n={n}",
                     "cells": n**d, "repeats": repeats,
                     **summary(times, "us", ALL_STATS), "value": value})
    return rows
