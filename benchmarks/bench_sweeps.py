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
sweep), the layer cake of the 2-ball on 128^3 centers, and building the
d = 2, n = 128 mixed extremal field for m = 1 (`extremal_mixed_m1`) with its
`mixed_deviation_sup`.  Each result is checked against the closed form it
should equal.

Lattice: `geometry._lattice_indicator` on the 21^2 kernel of the lattice
correlation (offsets of up to 10 cells of 0.1, at h = 1 less the tie) for
the 2-ball and the regular hexagon, checked against the bench's own gauges,
and the origin `window_value` rows that bench_windows.py also times.  The reduction and
lattice rows keep the quartiles of their timed calls.  Each --label run also
appends its row medians to the file's "runs", and once both labels hold
runs, "run_comparison" gives per row the quartiles of those medians on each
side: the host's speed changes in phases between processes, so only several
alternating runs per side show a row's spread.

The flags and the file layout (BENCH_sweeps.json by default) are
harness.py's.  With --label the file also gets the wall times of the calls
that acceptance criteria 01 and 02 make, in process (BENCH_lattice.json
holds the lattice rows next to the sweeps).
"""

from __future__ import annotations

import math
import sys

import numpy as np

import harness
from harness import ALL_STATS, hexagon, own_gauge, quartiles, summary, timed

CHUNK = 65_536  # cell centers per sweep chunk in every case below
REPEATS = 30  # timed calls per reduction
SWEEP_REPEATS = 3
LATTICE_REPEATS = 500


def chunk(d):
    """The second chunk of 65,536 centers of a grid over [-1.3, 1.3]^d."""
    from chargelab import GridSpec

    tail = {1: (), 2: (CHUNK,), 3: (256, 256), 4: (64, 32, 32)}[d]
    shape = (CHUNK,) if d == 1 else (4,) + tail
    grid = GridSpec(np.full(d, -1.3), np.full(d, 1.3), shape)
    if d == 1:  # a sweep hands 1-d centers in blocks: time them all at once
        return grid.axis_centers(0)[:, None]
    chunks = grid.iter_center_chunks()
    next(chunks)
    return next(chunks)[1].copy(order="K")


def reduction_rows():
    from chargelab import Cone, ConvexBody, box_corner_integral

    hexagon_K = hexagon()
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
            cases += [("gauge hexagon", hexagon_K.gauge_many),
                      ("gauge_gradient hexagon", hexagon_K.gauge_gradient_many),
                      ("member halfspaces", Cone.halfspaces([[1.0, 0.25], [0.0, 1.0]]).member_many)]
        for name, fn in cases:
            _, times = timed(lambda: fn(X), REPEATS, warmup=True)
            rows.append({"case": f"{name} d={d}", "points": X.shape[0],
                         "layout": "F" if X.flags.f_contiguous and d > 1 else "C",
                         "repeats": REPEATS, **summary(times, "ms", ALL_STATS)})
    return rows


def sweep_rows():
    from chargelab import (Cone, ConvexBody, GridSpec, MixedParams,
                           extremal_density, extremal_mixed_m1, grad_sup_polar,
                           layer_cake_integral, mixed_deviation_sup)

    K, C, h = ConvexBody.box(3), Cone.orthant(3, 1), 1.0
    grid = GridSpec.for_cone(3, 1, h, 256, margin=0.3 * h)
    fld = extremal_density(K, C, h, grid)
    ball = ConvexBody.pball(3, 2.0)
    mixed_grid = GridSpec.for_cone(2, 1, 1.5 * h, 128)
    cases = [
        ("field build d=3 n=256", lambda: extremal_density(K, C, h, grid), None),
        ("value sup d=3 n=256", lambda: fld.sup_abs("value", cone=C).value, h),
        ("gradient sup d=3 n=256", lambda: grad_sup_polar(fld, K, C), 1.0),
        ("layer cake 2-ball 128^3",
         lambda: layer_cake_integral(ball, Cone.orthant(3, 0), 1.0, n=128),
         math.pi),  # the integral of |u|_2 over the unit ball
        ("mixed m=1 field and deviation d=2 n=128",
         lambda: mixed_deviation_sup(extremal_mixed_m1(h, 2, mixed_grid),
                                     MixedParams(d=2, m=1, h=h)),
         2 * h / 3),  # the sharp d h / (d + 1)
    ]
    rows = []
    for name, fn, want in cases:
        got, times = timed(fn, SWEEP_REPEATS)
        if want is not None and abs(got - want) > 2e-3 * want:
            raise SystemExit(f"{name}: {got!r}, expected {want!r}")
        rows.append({"case": name, "repeats": SWEEP_REPEATS, **summary(times, "s")})
    return rows


def lattice_rows():
    from chargelab import Cone, ConvexBody
    from chargelab.geometry import _lattice_indicator

    axes = [np.arange(-10, 11) * 0.1] * 2
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    h = 1.0 - 1e-10
    rows = []
    for name, K in (("ball", ConvexBody.pball(2, 2.0)), ("hexagon", hexagon())):
        def call():
            return _lattice_indicator(K, Cone.orthant(2, 0), h, axes)

        if not np.array_equal(call(), own_gauge(name, X) < h):
            raise SystemExit(f"_lattice_indicator {name}: not the bench's own set")
        _, times = timed(call, LATTICE_REPEATS, warmup=True)
        rows.append({"case": f"_lattice_indicator {name} 21^2", "points": 21 * 21,
                     "repeats": LATTICE_REPEATS, **summary(times, "us", ALL_STATS)})
    return rows + harness.single_window_rows()


def criteria_seconds():
    """Wall times of the calls acceptance criteria 01 and 02 make."""
    from chargelab import (Cone, ConvexBody, GridSpec, extremal_charge,
                           grad_sup_polar, seminorm_Kh)

    sweep = [(d, m, h, ConvexBody.box(d), Cone.orthant(d, m))
             for d in (1, 2, 3) for m in range(d + 1) for h in (0.5, 1.0, 2.0)]

    def criterion02(d, m, h, K, C):
        nu = extremal_charge(K, C, h, GridSpec.for_cone(d, m, h, 256, margin=0.3 * h))
        nu.density.sup_abs("value", cone=C)
        grad_sup_polar(nu.density, K, C)
        seminorm_Kh(nu, K, h)

    crit01 = harness.criterion01_seconds()
    _, (crit02,) = timed(lambda: [criterion02(*case) for case in sweep])
    return {"criterion01_s": crit01, "criterion02_s": crit02}


def _row_median(row):
    return next(v for k, v in row.items() if k.startswith("median_"))


def compare_runs(runs):
    """Per row (and criterion): the quartiles of the per-run medians on each
    side, and in how many run pairs (in recording order) "after" reads lower."""
    before, after = runs.get("before", []), runs.get("after", [])
    if not (before and after):
        return {}
    out = {}
    for case in before[0]:
        bv = [r[case] for r in before]
        av = [r[case] for r in after]
        out[case] = {"before_q1_median_q3": quartiles(bv),
                     "after_q1_median_q3": quartiles(av),
                     "after_wins": sum(a < b for a, b in zip(av, bv)),
                     "pairs": min(len(av), len(bv))}
    return out


def measure(args):
    sections = {"reductions": reduction_rows(), "sweeps": sweep_rows(),
                "lattice": lattice_rows()}
    if args.label:
        sections["criteria"] = criteria_seconds()
    return sections


def record_run(bench, label):
    """Append this run's row medians to "runs", so that runs at the host's
    different speed phases give each row a spread, and compare the sides."""
    rows = [row for part in ("reductions", "sweeps", "lattice")
            for row in bench[part][label]]
    bench.setdefault("runs", {}).setdefault(label, []).append(
        {**{row["case"]: _row_median(row) for row in rows},
         **bench["criteria"][label]})
    bench["run_comparison"] = compare_runs(bench["runs"])


def main(argv=None) -> int:
    return harness.main(__doc__, "BENCH_sweeps.json", measure, argv, merge=record_run)


if __name__ == "__main__":
    sys.exit(main())
