"""Time the window kernels and record before/after figures.

Run from the repository root:

    python benchmarks/bench_windows.py                      # print the rows
    python benchmarks/bench_windows.py --label after \
        --out BENCH_correlation.json \
        --lkbench .lkbench_out/box-hsup-seed1-trace0.json ...

The box kernel is `chargelab.windows.box_window_sums`.  It takes per-axis
half-open index ranges and evaluates the full cartesian product of windows,
so a case costs roughly `queries` window sums.  Its cases are four random
batches (d = 1..4) and the all-centers shape of lkbench's `box-hsup`
workload (d = 3, 64^3 cells, one window per cell center).  Sampled windows
of every case are checked against `box_window_sum_direct`.

The general-body cases time `seminorm_Kh` for the 2-ball and the regular
hexagon (circumradius 1) on the extremal density (h - |x|_K)_+ at h = 1,
on 24^2 and 48^2 cells as in lkbench's `general-body` workload; each value
is checked against an independent midpoint sum of that density over the
cell centers of the origin's window, where the sup is attained.  The
single-window cases time one `Charge.window_value` at the origin on the
same extremal densities: the box with m = 1 on 64^3 cells (lkbench's
`box-hsup`), the 2-ball and the hexagon on 24^2 cells and the 3-ball on
96^3 cells, each checked against the same independent sum.

The deviation cases time `deviation_sup` on the box body's extremal charge
with its prefix table already built (the seminorm builds it first in every
report): the shape of lkbench's `box-hsup` (d = 3, m = 1, 64^3 cells),
acceptance criterion 04's d = 3 cases (96^3 cells) and `verify --case
extremal-charge --d 3` at its default grid of 128, the last one in a fresh
process that also reports its peak resident set size.  Each value is
checked against the sharp d h / (d + 1).  One more row times
`Charge._support_box` on the d = 3, n = 256 extremal field.

The mixed-recovery cases time `recover_derivative` in the mixed setting
(box body, orthant cone R^m_+ x R^(d-m)) on the "sin" density at delta
0.05, on `GridSpec.for_cone(d, m, 2, n)`: d = 1, m = 1 at 512 cells,
d = 2, m = 1 at 128 and 256, d = 3, m = 1 at 64 and m = 0 at 96.  Each
estimate is checked against an independent sum over the 2^d stencil
corners, and its mask against the centers whose stencil fits the grid.

With --label the rows are stored in the --out file (BENCH_windows.json by
default) under that label, next to the Python, NumPy and SciPy versions and
the processor count and the wall time of acceptance criterion 01's
layer-cake sweep (the same layer_cake_integral calls, in process).
--src times another checkout's sources (say, the parent commit's `src`).
--lkbench adds lkbench result files (`lkbench/run.py` leaves them as
.lkbench_out/<workload>-seed<seed>-trace<0|1>.json) under the same label;
once both labels hold runs of one workload and seed, the file also gets a
comparison: per metric, the median and quartiles of each side and how many
seed pairs the "after" side wins.  The file holds no before/after ratio of the
rows: each side's medians come from one process run at its own time, so
their ratio would carry the host's speed phase as well as the change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_windows.json"
# d, cells per axis, target query count (random batches)
RANDOM_CASES = [(1, 1 << 18, 200_000), (2, 1024, 250_000),
                (3, 128, 250_000), (4, 32, 200_000)]
# box-hsup: d = 3, 64 cells per axis, a window of +-16 cells at every center
ALL_CENTERS = (3, 64, 16)
REPEATS = 15  # timed calls per case (50x that for the single query)
# body, cells per axis (general-body cases)
GENERAL_CASES = [("ball", 24), ("hexagon", 24), ("ball", 48), ("hexagon", 48)]
GENERAL_REPEATS = 3
# body, d, m, cells per axis, timed calls (single-window cases, h = 1)
SINGLE_CASES = [("box", 3, 1, 64, 200), ("ball", 2, 0, 24, 500),
                ("hexagon", 2, 0, 24, 500), ("ball", 3, 0, 96, 50)]
# deviation cases: label, d, m, h, cells per axis, grid margin over h
DEVIATION_CASES = [("box-hsup", 3, 1, 1.0, 64, 0.25),
                   ("criterion 04", 3, 1, 1.0, 96, 0.3),
                   ("criterion 04", 3, 3, 2.0, 96, 0.3)]
RSS_CASE = ("verify grid 128", 3, 0, 1.0, 128, 0.25)
DEVIATION_REPEATS = 5
# mixed-recovery cases: d, m, cells per axis, timed calls (delta 0.05)
MIXED_CASES = [(1, 1, 512, 400), (2, 1, 128, 200), (2, 1, 256, 50),
               (3, 1, 64, 50), (3, 0, 96, 20)]
LKBENCH_NAME = re.compile(r"(?P<workload>[\w-]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def random_case(rng, d, n, queries):
    q_axis = max(2, round(queries ** (1.0 / d)))
    i0s = [rng.integers(0, n // 2, size=q_axis) for _ in range(d)]
    i1s = [a + rng.integers(1, n // 2, size=q_axis) for a in i0s]
    return i0s, i1s


def all_centers_case(n, r, d):
    c = np.arange(n)
    return [np.clip(c - r, 0, n)] * d, [np.clip(c + r + 1, 0, n)] * d


def time_case(windows, label, values, i0s, i1s, rng, repeats):
    prefix = windows.build_prefix(values)
    out = windows.box_window_sums(prefix, i0s, i1s)
    # errors grow with the largest prefix entry, the total of the values
    tol = 1e-12 * max(1.0, float(np.abs(values).sum()))
    for _ in range(20):
        idx = tuple(int(rng.integers(0, len(a))) for a in i0s)
        a = [i0s[k][idx[k]] for k in range(values.ndim)]
        b = [i1s[k][idx[k]] for k in range(values.ndim)]
        ref = windows.box_window_sum_direct(values, a, b)
        if abs(out[idx] - ref) > tol:
            raise SystemExit(f"{label}: window {idx} gives {out[idx]!r}, "
                             f"direct slicing {ref!r}")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        windows.box_window_sums(prefix, i0s, i1s)
        times.append(time.perf_counter() - t0)
    queries = int(np.prod([len(a) for a in i0s]))
    med = statistics.median(times)
    return {"case": label, "d": values.ndim, "n": values.shape[0],
            "queries": queries, "repeats": repeats,
            "best_ms": 1e3 * min(times), "median_ms": 1e3 * med,
            "ns_per_query": 1e9 * med / queries}


def kernel_rows(windows):
    rng = np.random.default_rng(0)
    rows = []
    for d, n, queries in RANDOM_CASES:
        values = rng.random((n,) * d)
        i0s, i1s = random_case(rng, d, n, queries)
        rows.append(time_case(windows, f"random d={d} n={n}", values,
                              i0s, i1s, rng, REPEATS))
    d, n, r = ALL_CENTERS
    values = rng.random((n,) * d)
    i0s, i1s = all_centers_case(n, r, d)
    rows.append(time_case(windows, f"all centers d={d} n={n}", values,
                          i0s, i1s, rng, REPEATS))
    # one window per call, the per-call overhead of the CLI's small grids
    i0s, i1s = [np.array([3])] * d, [np.array([40])] * d
    rows.append(time_case(windows, f"single query d={d} n={n}", values,
                          i0s, i1s, rng, 50 * REPEATS))
    return rows


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
        K = ConvexBody.polytope(2, vertices=[
            (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)])
    else:
        K = ConvexBody.box(d) if name == "box" else ConvexBody.pball(d, 2.0)
    grid = GridSpec.for_cone(d, m, h, n, margin=0.25 * h)
    return K, extremal_charge(K, Cone.orthant(d, m), h, grid)


def general_rows():
    from chargelab import seminorm_Kh

    h = 1.0
    rows = []
    for name, n in GENERAL_CASES:
        K, nu = extremal_case(name, 2, 0, n, h)
        origin = origin_window(name, nu.density.grid, 0, h)
        times = []
        for _ in range(GENERAL_REPEATS):
            t0 = time.perf_counter()
            value = seminorm_Kh(nu, K, h).value
            times.append(time.perf_counter() - t0)
            if abs(value - origin) > 1e-9 * abs(origin):
                raise SystemExit(f"seminorm_Kh {name} n={n}: {value!r}, "
                                 f"origin window sum {origin!r}")
        rows.append({"case": f"seminorm_Kh {name} n={n}", "cells": n * n,
                     "repeats": GENERAL_REPEATS, "best_ms": 1e3 * min(times),
                     "median_ms": 1e3 * statistics.median(times), "value": value})
    return rows


def single_window_rows():
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
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            nu.window_value(K, y, h)
            times.append(time.perf_counter() - t0)
        q1, med, q3 = _quartiles(times)
        rows.append({"case": f"window_value origin {name} d={d} m={m} n={n}",
                     "cells": n**d, "repeats": repeats,
                     "best_us": 1e6 * min(times), "q1_us": 1e6 * q1,
                     "median_us": 1e6 * med, "q3_us": 1e6 * q3, "value": value})
    return rows


def deviation_case(d, m, h, n, margin):
    from chargelab import Cone, ConvexBody, GridSpec, SteklovParams, extremal_charge

    K, C = ConvexBody.box(d), Cone.orthant(d, m)
    nu = extremal_charge(K, C, h, GridSpec.for_cone(d, m, h, n, margin=margin * h))
    nu.prefix()
    return nu, SteklovParams.create(K, C, h)


def deviation_row(label, d, m, h, n, margin, repeats):
    from chargelab import deviation_sup

    nu, p = deviation_case(d, m, h, n, margin)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = deviation_sup(nu, p).value
        times.append(time.perf_counter() - t0)
    want = d * h / (d + 1)
    if abs(value - want) > 1e-3 * want:
        raise SystemExit(f"deviation_sup {label}: {value!r}, sharp {want!r}")
    return {"case": f"deviation_sup {label} d={d} m={m} h={h} n={n}",
            "repeats": repeats, "best_ms": 1e3 * min(times),
            "median_ms": 1e3 * statistics.median(times), "value": value}


def rss_case_row():
    """RSS_CASE once, in this process: its row plus the peak RSS."""
    label, d, m, h, n, margin = RSS_CASE
    row = deviation_row(label, d, m, h, n, margin, 1)
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row


def support_row():
    from chargelab import Cone, ConvexBody, GridSpec, extremal_charge

    K, C = ConvexBody.box(3), Cone.orthant(3, 1)
    nu = extremal_charge(K, C, 1.0, GridSpec.for_cone(3, 1, 1.0, 256, margin=0.3))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        lo, hi = nu._support_box()
        times.append(time.perf_counter() - t0)
    if not (np.allclose(lo, [0.0, -1.0, -1.0], atol=0.02)
            and np.allclose(hi, 1.0, atol=0.02)):
        raise SystemExit(f"support box {lo!r}, {hi!r} is not the window")
    return {"case": "support box d=3 n=256", "repeats": 3,
            "best_ms": 1e3 * min(times), "median_ms": 1e3 * statistics.median(times)}


def deviation_rows(src):
    rows = [deviation_row(*case, DEVIATION_REPEATS) for case in DEVIATION_CASES]
    child = subprocess.run([sys.executable, __file__, "--src", src, "--rss-case"],
                           capture_output=True, text=True, check=True)
    rows.append(json.loads(child.stdout.splitlines()[-1]))
    rows.append(support_row())
    return rows


def stencil_sum(values, m, ks):
    """The composed difference (unscaled) at the centers whose stencil
    fits, by its 2^d corners: offsets (k, +1) and (0, -1) on the first m
    axes, (k, +1) and (-k, -1) on the others, k = ks[axis] cells; and the
    slices of those centers."""
    d, n = values.ndim, values.shape
    below = [0 if i < m else ks[i] for i in range(d)]
    inner = tuple(slice(below[i], n[i] - ks[i]) for i in range(d))
    total = np.zeros(tuple(s.stop - s.start for s in inner))
    for corner in np.ndindex(*(2,) * d):
        offs = [ks[i] if c == 0 else -below[i] for i, c in enumerate(corner)]
        at = tuple(slice(below[i] + o, n[i] - ks[i] + o) for i, o in enumerate(offs))
        total += (-1.0) ** sum(corner) * values[at]
    return total, inner


def mixed_rows():
    from chargelab import Charge, GridSpec, ProblemSetting, recover_derivative
    from chargelab.families import make_density

    delta = 0.05
    rows = []
    for d, m, n, repeats in MIXED_CASES:
        s = ProblemSetting.mixed(d, m)
        grid = GridSpec.for_cone(d, m, 2.0, n)
        nu = Charge(make_density("sin", grid), s.C)
        res = recover_derivative(nu, delta, s)
        ks = [round(res.h / sp) for sp in grid.spacing]
        total, inner = stencil_sum(nu.density.values, m, ks)
        want = np.zeros(grid.shape, dtype=bool)
        want[inner] = True
        scale = 1.0 / (2 ** (d - m) * res.h**d)
        tol = 1e-12 * float(np.abs(nu.density.values).sum()) * scale
        if not (np.array_equal(res.valid, want)
                and np.all(np.isnan(res.estimate[~want]))
                and np.max(np.abs(res.estimate[inner] - scale * total)) <= tol):
            raise SystemExit(f"mixed recovery d={d} m={m} n={n}: the estimate "
                             "or its mask differs from the stencil sum")
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            recover_derivative(nu, delta, s)
            times.append(time.perf_counter() - t0)
        q1, med, q3 = _quartiles(times)
        rows.append({"case": f"recover_derivative mixed d={d} m={m} n={n}",
                     "cells": n**d, "h": res.h, "repeats": repeats,
                     "best_ms": 1e3 * min(times), "q1_ms": 1e3 * q1,
                     "median_ms": 1e3 * med, "q3_ms": 1e3 * q3})
    return rows


def criterion01_seconds():
    """Wall time of acceptance criterion 01's layer-cake calls."""
    from chargelab import Cone, ConvexBody, layer_cake_integral

    t0 = time.perf_counter()
    for d in (1, 2, 3):
        for m in range(d + 1):
            for h in (0.5, 1.0, 2.0):
                K, C = ConvexBody.box(d), Cone.orthant(d, m)
                for n in (256, 64, 128):
                    layer_cake_integral(K, C, h, n=n)
    return time.perf_counter() - t0


def environment():
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


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
            bq, aq = _quartiles(bv), _quartiles(av)
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the chargelab package to time")
    ap.add_argument("--label", choices=("before", "after"), default=None,
                    help="store the figures in the --out file under this label")
    ap.add_argument("--out", default=str(BENCH_FILE),
                    help="BENCH file that --label writes (default: %(default)s)")
    ap.add_argument("--lkbench", nargs="*", default=[],
                    help="lkbench result files to store under --label")
    ap.add_argument("--rss-case", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.lkbench and not args.label:
        ap.error("--lkbench needs --label")

    sys.path.insert(0, args.src)
    from chargelab import windows

    if args.rss_case:
        print(json.dumps(rss_case_row()))
        return 0
    rows = kernel_rows(windows)
    general = general_rows()
    single = single_window_rows()
    deviation = deviation_rows(args.src)
    mixed = mixed_rows()
    for row in rows + general + single + deviation + mixed:
        print(json.dumps(row))
    if not args.label:
        return 0
    crit = criterion01_seconds()
    print(json.dumps({"case": "criterion 01 layer-cake sweep", "seconds": crit}))
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("environment", {})[args.label] = environment()
    kernel = bench.setdefault("kernel", {})
    kernel[args.label] = {"engine": windows.KERNEL, "rows": rows}
    gen = bench.setdefault("general_body", {})
    gen[args.label] = {"rows": general}
    bench.setdefault("single_window", {})[args.label] = {"rows": single}
    dev = bench.setdefault("deviation", {})
    dev[args.label] = {"rows": deviation}
    bench.setdefault("mixed_recovery", {})[args.label] = {"rows": mixed}
    bench.setdefault("criterion01_s", {})[args.label] = crit
    if args.lkbench:
        lk = bench.setdefault("lkbench", {})
        lk[args.label] = read_lkbench(args.lkbench, lk.setdefault("units", {}))
        lk["comparison"] = compare(lk)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
