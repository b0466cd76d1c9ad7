"""Time the window kernels and record before/after figures.

Run from the repository root:

    python benchmarks/bench_windows.py                      # print the rows
    python benchmarks/bench_windows.py --label after \
        --out BENCH_correlation.json \
        --lkbench .lkbench_out/box-hsup-seed1-trace0.json ...

The box kernel is `chargelab.windows.box_window_sums`.  It takes per-axis
half-open index ranges and evaluates the full cartesian product of windows,
so a case costs roughly `queries` window sums.  Its cases are four random
batches (d = 1..4), the all-centers shape of lkbench's `box-hsup`
workload (d = 3, 64^3 cells, one window per cell center) with integer
ranges, as `seminorm_Kh` asks for them, and with real positions, as
`deviation_sup` does, and one single-window call.  Sampled windows of every
case are checked against direct slicing of the values (`box_window_sum_direct`,
or its fractional version here).  Each row also gives the minor page
faults per timed call (`ru_minflt`), which fresh temporaries cost; a
process whose allocator already holds pages of their size reads none.

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

The flags and the file layout are harness.py's.  With --label the file
(BENCH_windows.json by default) also gets the wall time of acceptance
criterion 01's layer-cake sweep (the same layer_cake_integral calls, in
process).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys

import numpy as np

import harness
from harness import ROOT, extremal_case, origin_window, summary, timed

# d, cells per axis, target query count (random batches)
RANDOM_CASES = [(1, 1 << 18, 200_000), (2, 1024, 250_000),
                (3, 128, 250_000), (4, 32, 200_000)]
# box-hsup: d = 3, 64 cells per axis, a window of +-16 cells at every center
ALL_CENTERS = (3, 64, 16)
REPEATS = 15  # timed calls per case (50x that for the single query)
# body, cells per axis (general-body cases)
GENERAL_CASES = [("ball", 24), ("hexagon", 24), ("ball", 48), ("hexagon", 48)]
GENERAL_REPEATS = 3
# deviation cases: label, d, m, h, cells per axis, grid margin over h
DEVIATION_CASES = [("box-hsup", 3, 1, 1.0, 64, 0.25),
                   ("criterion 04", 3, 1, 1.0, 96, 0.3),
                   ("criterion 04", 3, 3, 2.0, 96, 0.3)]
RSS_CASE = ("verify grid 128", 3, 0, 1.0, 128, 0.25)
DEVIATION_REPEATS = 5
# mixed-recovery cases: d, m, cells per axis, timed calls (delta 0.05)
MIXED_CASES = [(1, 1, 512, 400), (2, 1, 128, 200), (2, 1, 256, 50),
               (3, 1, 64, 50), (3, 0, 96, 20)]
# RSS_CASE once in a fresh process: its row plus the peak RSS
RSS_PROBE = """
import json, resource, runpy
row = runpy.run_path({script!r})["deviation_row"](*{case!r}, 1)
row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(row))
"""


def random_case(rng, d, n, queries):
    q_axis = max(2, round(queries ** (1.0 / d)))
    i0s = [rng.integers(0, n // 2, size=q_axis) for _ in range(d)]
    i1s = [a + rng.integers(1, n // 2, size=q_axis) for a in i0s]
    return i0s, i1s


def all_centers_case(n, r, d):
    c = np.arange(n)
    return [np.clip(c - r, 0, n)] * d, [np.clip(c + r + 1, 0, n)] * d


def fractional_centers_case(n, r, d):
    """Real window ends (c + 0.5) -+ (r + 0.3) cells at every center c,
    the ends beyond the grid left for the kernel to clip."""
    c = np.arange(n) + 0.5
    return [c - (r + 0.3)] * d, [c + (r + 0.3)] * d


def fractional_direct(values, t0s, t1s):
    """One window with real ends by direct slicing: the cells that [t0, t1],
    clipped to the grid, meets on each axis, each weighted by the length of
    it inside."""
    cells, weights = values, []
    for axis, (t0, t1) in enumerate(zip(t0s, t1s)):
        n = values.shape[axis]
        t0, t1 = min(max(float(t0), 0.0), n), min(max(float(t1), 0.0), n)
        if t1 <= t0:
            return 0.0
        j = np.arange(math.floor(t0), math.ceil(t1))
        cells = cells[(slice(None),) * axis + (slice(j[0], j[-1] + 1),)]
        weights.append(np.minimum(j + 1, t1) - np.maximum(j, t0))
    for w in weights:
        cells = np.tensordot(w, cells, axes=(0, 0))
    return float(cells)


def time_case(windows, label, values, i0s, i1s, rng, repeats):
    prefix = windows.build_prefix(values)
    out = windows.box_window_sums(prefix, i0s, i1s)
    # errors grow with the largest prefix entry, the total of the values
    tol = 1e-12 * max(1.0, float(np.abs(values).sum()))
    for _ in range(20):
        idx = tuple(int(rng.integers(0, len(a))) for a in i0s)
        a = [i0s[k][idx[k]] for k in range(values.ndim)]
        b = [i1s[k][idx[k]] for k in range(values.ndim)]
        ref = (windows.box_window_sum_direct(values, a, b)
               if np.issubdtype(i0s[0].dtype, np.integer)
               else fractional_direct(values, a, b))
        if abs(out[idx] - ref) > tol:
            raise SystemExit(f"{label}: window {idx} gives {out[idx]!r}, "
                             f"direct slicing {ref!r}")
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, times = timed(lambda: windows.box_window_sums(prefix, i0s, i1s), repeats)
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
    queries = int(np.prod([len(a) for a in i0s]))
    row = summary(times)
    return {"case": label, "d": values.ndim, "n": values.shape[0],
            "queries": queries, "repeats": repeats, **row,
            "ns_per_query": 1e6 * row["median_ms"] / queries,
            "faults_per_call": minflt / repeats}


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
    i0s, i1s = fractional_centers_case(n, r, d)
    rows.append(time_case(windows, f"fractional all centers d={d} n={n}", values,
                          i0s, i1s, rng, REPEATS))
    # one window per call, the per-call overhead of the CLI's small grids
    i0s, i1s = [np.array([3])] * d, [np.array([40])] * d
    rows.append(time_case(windows, f"single query d={d} n={n}", values,
                          i0s, i1s, rng, 50 * REPEATS))
    return rows


def general_rows():
    from chargelab import seminorm_Kh

    h = 1.0
    rows = []
    for name, n in GENERAL_CASES:
        K, nu = extremal_case(name, 2, 0, n, h)
        origin = origin_window(name, nu.density.grid, 0, h)
        value, times = timed(lambda: seminorm_Kh(nu, K, h).value, GENERAL_REPEATS)
        if abs(value - origin) > 1e-9 * abs(origin):
            raise SystemExit(f"seminorm_Kh {name} n={n}: {value!r}, "
                             f"origin window sum {origin!r}")
        rows.append({"case": f"seminorm_Kh {name} n={n}", "cells": n * n,
                     "repeats": GENERAL_REPEATS, **summary(times), "value": value})
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
    value, times = timed(lambda: deviation_sup(nu, p).value, repeats)
    want = d * h / (d + 1)
    if abs(value - want) > 1e-3 * want:
        raise SystemExit(f"deviation_sup {label}: {value!r}, sharp {want!r}")
    return {"case": f"deviation_sup {label} d={d} m={m} h={h} n={n}",
            "repeats": repeats, **summary(times), "value": value}


def support_row():
    from chargelab import Cone, ConvexBody, GridSpec, extremal_charge

    K, C = ConvexBody.box(3), Cone.orthant(3, 1)
    nu = extremal_charge(K, C, 1.0, GridSpec.for_cone(3, 1, 1.0, 256, margin=0.3))
    (lo, hi), times = timed(nu._support_box, 3)
    if not (np.allclose(lo, [0.0, -1.0, -1.0], atol=0.02)
            and np.allclose(hi, 1.0, atol=0.02)):
        raise SystemExit(f"support box {lo!r}, {hi!r} is not the window")
    return {"case": "support box d=3 n=256", "repeats": 3, **summary(times)}


def deviation_rows(src):
    rows = [deviation_row(*case, DEVIATION_REPEATS) for case in DEVIATION_CASES]
    probe = RSS_PROBE.format(script=__file__, case=RSS_CASE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT / "benchmarks")]))
    child = harness.run([sys.executable, "-c", probe], env)
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
        _, times = timed(lambda: recover_derivative(nu, delta, s), repeats)
        rows.append({"case": f"recover_derivative mixed d={d} m={m} n={n}",
                     "cells": n**d, "h": res.h, "repeats": repeats,
                     **summary(times, "ms", harness.ALL_STATS)})
    return rows


def measure(args):
    from chargelab import windows

    sections = {"kernel": {"engine": windows.KERNEL, "rows": kernel_rows(windows)},
                "general_body": {"rows": general_rows()},
                "single_window": {"rows": harness.single_window_rows()},
                "deviation": {"rows": deviation_rows(args.src)},
                "mixed_recovery": {"rows": mixed_rows()}}
    if args.label:
        sections["criterion01_s"] = harness.criterion01_seconds()
    return sections


def main(argv=None) -> int:
    return harness.main(__doc__, "BENCH_windows.json", measure, argv)


if __name__ == "__main__":
    sys.exit(main())
