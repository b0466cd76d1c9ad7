"""Time the lattice sweeps and their per-point reductions, and record
before/after figures.

Run from the repository root:

    python benchmarks/bench_sweeps.py                       # print the rows
    python benchmarks/bench_sweeps.py --label after \\
        --lkbench .lkbench_out/box-hsup-seed1-trace0.json ...

Reductions: each per-point reduction over the d coordinates (the p-ball
gauges at p = 1, 2, 3.5 and inf, the box polar norm and gauge gradient, the
hexagon's gauge and gradient, the cone tests and the box-corner
antiderivative) on one chunk of 65,536 cell centers, as
`GridSpec.iter_center_chunks` hands it to a callback, so each checkout is
timed on its own point layout.  Sweeps: building the d = 3, n = 256
extremal field of the box body with the cone R_+ x R^2 at h = 1 (one value
sweep), its value sup, its gradient sup (`grad_sup_polar`, one gradient
sweep) and the layer cake of the 2-ball on 128^3 centers.  Each result is
checked against the closed form it should equal.

With --label the rows are stored in the --out file (BENCH_sweeps.json by
default) under that label, next to the Python, NumPy and SciPy versions and
the wall times of the calls that acceptance criteria 01 and 02 make, in
process.  --src times another checkout's sources (say, the parent commit's
`src`).  --lkbench adds lkbench result files under the same label, and once
both labels hold runs of one workload and seed, the file gets a comparison
as in bench_windows.py.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_windows import ROOT, compare, environment, read_lkbench

BENCH_FILE = ROOT / "BENCH_sweeps.json"
CHUNK = 65_536  # cell centers per sweep chunk in every case below
REPEATS = 30  # timed calls per reduction
SWEEP_REPEATS = 3


def _median_ms(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), 1e3 * min(times)


def chunk(d):
    """The second chunk of 65,536 centers of a grid over [-1.3, 1.3]^d."""
    from chargelab import GridSpec

    tail = {1: (), 2: (CHUNK,), 3: (256, 256), 4: (64, 32, 32)}[d]
    shape = (CHUNK,) if d == 1 else (4,) + tail
    grid = GridSpec(np.full(d, -1.3), np.full(d, 1.3), shape)
    chunks = grid.iter_center_chunks()
    pts = next(chunks)[1]
    if d > 1:
        pts = next(chunks)[1]
    return pts.copy(order="K")


def reduction_rows():
    from chargelab import Cone, ConvexBody, box_corner_integral

    hexagon = ConvexBody.polytope(2, vertices=[
        (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)])
    rows = []
    for d in (1, 2, 3, 4):
        X = chunk(d)
        box = ConvexBody.box(d)
        cases = [(f"gauge p={p}", ConvexBody.pball(d, p).gauge_many)
                 for p in (1.0, 2.0, 3.5, math.inf)]
        cases += [("polar box", box.polar_norm_many),
                  ("gauge_gradient box", box.gauge_gradient_many),
                  ("gauge_gradient p=2", ConvexBody.pball(d, 2.0).gauge_gradient_many),
                  ("member orthant m=d", Cone.orthant(d, d).member_many),
                  ("member_closure orthant m=1", Cone.orthant(d, 1).member_closure_many),
                  ("box_corner_integral", lambda Y: box_corner_integral(np.abs(Y), 1.0))]
        if d == 2:
            cases += [("gauge hexagon", hexagon.gauge_many),
                      ("gauge_gradient hexagon", hexagon.gauge_gradient_many),
                      ("member halfspaces", Cone.halfspaces([[1.0, 0.25], [0.0, 1.0]]).member_many)]
        for name, fn in cases:
            med, best = _median_ms(lambda: fn(X), REPEATS)
            rows.append({"case": f"{name} d={d}", "points": X.shape[0],
                         "layout": "F" if X.flags.f_contiguous and d > 1 else "C",
                         "repeats": REPEATS, "median_ms": med, "best_ms": best})
    return rows


def sweep_rows():
    from chargelab import (Cone, ConvexBody, GridSpec, extremal_density,
                           grad_sup_polar, layer_cake_integral)

    K, C, h = ConvexBody.box(3), Cone.orthant(3, 1), 1.0
    grid = GridSpec.for_cone(3, 1, h, 256, margin=0.3 * h)
    fld = extremal_density(K, C, h, grid)
    ball = ConvexBody.pball(3, 2.0)
    cases = [
        ("field build d=3 n=256", lambda: extremal_density(K, C, h, grid), None),
        ("value sup d=3 n=256", lambda: fld.sup_abs("value", cone=C).value, h),
        ("gradient sup d=3 n=256", lambda: grad_sup_polar(fld, K, C), 1.0),
        ("layer cake 2-ball 128^3",
         lambda: layer_cake_integral(ball, Cone.orthant(3, 0), 1.0, "grid", n=128),
         math.pi),  # the integral of |u|_2 over the unit ball
    ]
    rows = []
    for name, fn, want in cases:
        times = []
        for _ in range(SWEEP_REPEATS):
            t0 = time.perf_counter()
            got = fn()
            times.append(time.perf_counter() - t0)
        if want is not None and abs(got - want) > 2e-3 * want:
            raise SystemExit(f"{name}: {got!r}, expected {want!r}")
        rows.append({"case": name, "repeats": SWEEP_REPEATS,
                     "median_s": statistics.median(times), "best_s": min(times)})
    return rows


def criteria_seconds():
    """Wall times of the calls acceptance criteria 01 and 02 make."""
    from chargelab import (Cone, ConvexBody, GridSpec, extremal_charge,
                           grad_sup_polar, layer_cake_integral, seminorm_Kh)

    sweep = [(d, m, h) for d in (1, 2, 3) for m in range(d + 1)
             for h in (0.5, 1.0, 2.0)]
    t0 = time.perf_counter()
    for d, m, h in sweep:
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        for n in (256, 64, 128):
            layer_cake_integral(K, C, h, "grid", n=n)
    crit01 = time.perf_counter() - t0
    t0 = time.perf_counter()
    for d, m, h in sweep:
        K, C = ConvexBody.box(d), Cone.orthant(d, m)
        nu = extremal_charge(K, C, h, GridSpec.for_cone(d, m, h, 256, margin=0.3 * h))
        nu.density.sup_abs("value", cone=C)
        grad_sup_polar(nu.density, K, C)
        seminorm_Kh(nu, K, h)
    return {"criterion01_s": crit01, "criterion02_s": time.perf_counter() - t0}


def _speedups(before, after, key):
    return {b["case"]: b[key] / a[key] for b, a in zip(before, after)}


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
    args = ap.parse_args(argv)
    if args.lkbench and not args.label:
        ap.error("--lkbench needs --label")

    sys.path.insert(0, args.src)
    reductions = reduction_rows()
    sweeps = sweep_rows()
    for row in reductions + sweeps:
        print(json.dumps(row))
    if not args.label:
        return 0
    criteria = criteria_seconds()
    print(json.dumps(criteria))
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("environment", {})[args.label] = environment()
    for part, rows, key in (("reductions", reductions, "median_ms"),
                            ("sweeps", sweeps, "median_s")):
        entry = bench.setdefault(part, {})
        entry[args.label] = rows
        if "before" in entry and "after" in entry:
            entry["median_speedup"] = _speedups(entry["before"], entry["after"], key)
    bench.setdefault("criteria", {})[args.label] = criteria
    if args.lkbench:
        lk = bench.setdefault("lkbench", {})
        lk[args.label] = read_lkbench(args.lkbench, lk.setdefault("units", {}))
        lk["comparison"] = compare(lk)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
