"""Time seminorm_K, the sup over h of the fixed-h seminorm, and the report
pair that reads it, and record before/after figures.

Run from the repository root:

    python benchmarks/bench_seminorm.py                     # print the rows
    python benchmarks/bench_seminorm.py --label after \\
        --lkbench .lkbench_out/box-hsup-seed1-trace0.json ...

Cases, each on the extremal density (h - |x|_K)_+ of its body and cone, with
h_max = 2.5 h as the multiplicative report passes it:

- the shape of lkbench's `box-hsup` (box body, cone R_+ x R^2, d = 3,
  64^3 cells, prefix path), with include_h = [h] as there and without it;
- acceptance criterion 05's extremal sweep (27 box cases, d = 1..3,
  m = 0..d, h = 0.5, 1, 2), with include_h = [h], and its 30 signed random
  charges, with the largest `gap` the result reports;
- the 3-ball with the cone R^3 on 128^3 cells (correlation path), once
  with include_h = [h] and once without it;
- lkbench `box-hsup`'s operation: the additive and the multiplicative
  report (include_h = [h]) on one fresh charge of that shape, with the
  points passed to the gradient callback and the `windows.box_window_sums`
  calls of one operation, and both reports checked for equality;
- `verify --case extremal-charge --d 3` end to end, in a fresh process.

Each seminorm_K row times a fresh charge per call (its prefix table built
beforehand), as a charge memoizes its sweeps, counts the `seminorm_Kh`
sweeps and checks the value: the extremal values against the sweep at
h_max (a charge that is >= 0 has its sup there) and within 5e-3 (midpoint
quadrature on 48^3 cells) of the closed form h^(d+1) mu / (d+1).

The flags and the file layout (BENCH_seminorm.json by default) are
harness.py's.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

import harness
from harness import ALL_STATS, Calls, summary, timed

BOX_REPEATS = 5
OP_REPEATS = 20
# body, d, m, h, cells per axis, grid margin over h
BOX_HSUP = ("box", 3, 1, 1.0, 64, 0.25)
BALL_128 = ("ball", 3, 0, 1.0, 128, 0.25)


def extremal(body, d, m, h, n, margin):
    from chargelab import Cone, ConvexBody, GridSpec, extremal_charge

    K = ConvexBody.box(d) if body == "box" else ConvexBody.pball(d, 2.0)
    C = Cone.orthant(d, m)
    nu = extremal_charge(K, C, h, GridSpec.for_cone(d, m, h, n, margin=margin * h))
    return nu, K, C


def check_extremal(label, nu, K, C, h, res):
    from chargelab import charges
    from chargelab.geometry import volume_body_cone

    at_max = charges.seminorm_Kh(nu, K, 2.5 * h).value
    if res.value != at_max:
        raise SystemExit(f"{label}: seminorm_K {res.value!r}, "
                         f"sweep at h_max {at_max!r}")
    d = K.d
    want = h ** (d + 1) * volume_body_cone(K, C).value / (d + 1)
    if abs(res.value - want) > 5e-3 * want:
        raise SystemExit(f"{label}: seminorm_K {res.value!r}, closed form {want!r}")


def extremal_row(case, include, repeats):
    from chargelab import Charge, charges

    body, d, m, h, n, margin = case
    nu, K, C = extremal(*case)
    fresh = [Charge(nu.density, C) for _ in range(repeats)]
    for c in fresh:
        c.prefix()
    calls = iter(fresh)
    with Calls(charges, "seminorm_Kh") as sweeps:
        res, times = timed(lambda: charges.seminorm_K(
            next(calls), K, 2.5 * h, include_h=[h] if include else ()), repeats)
    check_extremal(body, nu, K, C, h, res)
    return {"case": f"seminorm_K {body} d={d} m={m} n={n}"
                    + (" include_h=[h]" if include else ""),
            "repeats": repeats, **summary(times),
            "seminorm_Kh_calls": sweeps.calls // repeats,
            "value": res.value, "h_opt": res.h_opt}


def criterion05_rows():
    from chargelab import Charge, Cone, ConvexBody, GridSpec, charges
    from chargelab.families import random_separable_field
    from chargelab.inequalities import default_h_max

    cases = [(d, m, h) for d in (1, 2, 3) for m in range(d + 1)
             for h in (0.5, 1.0, 2.0)]
    charged = [(d, m, h, *extremal("box", d, m, h, 96 if d <= 2 else 48, 0.3))
               for d, m, h in cases]
    with Calls(charges, "seminorm_Kh") as sweeps:
        results, (seconds,) = timed(lambda: [
            charges.seminorm_K(nu, K, 2.5 * h, include_h=[h])
            for d, m, h, nu, K, C in charged])
    for (d, m, h, nu, K, C), res in zip(charged, results):
        check_extremal(f"criterion 05 d={d} m={m} h={h}", nu, K, C, h, res)
    rows = [{"case": "criterion 05 extremal sweep (27 cases)", "seconds": seconds,
             "seminorm_Kh_calls": sweeps.calls,
             "worst_rel_h_opt_minus_h": max(abs(res.h_opt - c[2]) / c[2]
                                            for c, res in zip(charged, results))}]
    # the signed suite, drawn as criterion 05 draws it
    rng = np.random.default_rng(12345)
    signed = []
    for _ in range(30):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(0, d + 1))
        grid = GridSpec.for_cone(d, m, 1.5, 96 if d == 1 else 64)
        signed.append((Charge(random_separable_field(rng, grid), Cone.orthant(d, m)),
                       ConvexBody.box(d)))
        rng.uniform(0.2, 1.0)  # the suite's h, which seminorm_K does not take
    with Calls(charges, "seminorm_Kh") as sweeps:
        results, (seconds,) = timed(lambda: [
            charges.seminorm_K(nu, K, default_h_max(nu, K)) for nu, K in signed])
    # the parent's result has no gap
    gaps = [res.gap for res in results if hasattr(res, "gap")]
    rows.append({"case": "criterion 05 signed suite (30 charges)", "seconds": seconds,
                 "seminorm_Kh_calls": sweeps.calls,
                 "gaps_zero": sum(g == 0.0 for g in gaps) if gaps else None,
                 "max_gap": max(gaps) if gaps else None})
    return rows


def box_hsup_op_row(repeats):
    from chargelab import (Charge, lk_additive_charge, lk_multiplicative_charge,
                           windows)

    body, d, m, h, n, margin = BOX_HSUP
    nu, K, C = extremal(*BOX_HSUP)
    density = nu.density

    def op():
        nu = Charge(density, C)
        return (lk_additive_charge(nu, K, C, h),
                lk_multiplicative_charge(nu, K, C, h_max=2.5 * h, include_h=[h]))

    # one counted operation, which is also the warm-up
    points, grad_fn = [], density.grad_fn
    density.grad_fn = lambda pts: points.append(len(pts)) or grad_fn(pts)
    with Calls(windows, "box_window_sums") as kernel:
        reports = op()
    density.grad_fn = grad_fn
    for rep in reports:
        if not rep.equality:
            raise SystemExit(f"box-hsup operation: {rep.case} slack {rep.slack!r}")
    _, times = timed(op, repeats)
    return {"case": f"box-hsup operation: additive + multiplicative, {body} "
                    f"d={d} m={m} n={n} h={h}",
            "repeats": repeats, **summary(times, "ms", ALL_STATS),
            "grad_callback_points": sum(points),
            "box_window_sums_calls": kernel.calls}


def verify_row(src):
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as out:
        _, (seconds,) = timed(lambda: harness.run(
            [sys.executable, "-m", "chargelab.cli", "verify", "--case",
             "extremal-charge", "--d", "3", "--out", out], env))
    return {"case": "verify --case extremal-charge --d 3 (fresh process)",
            "seconds": seconds}


def measure(args):
    rows = [extremal_row(BOX_HSUP, True, BOX_REPEATS),
            extremal_row(BOX_HSUP, False, BOX_REPEATS)]
    rows += criterion05_rows()
    rows += [extremal_row(BALL_128, True, 1), extremal_row(BALL_128, False, 1)]
    rows.append(box_hsup_op_row(OP_REPEATS))
    rows.append(verify_row(args.src))
    return {"seminorm_K": rows}


def main(argv=None) -> int:
    return harness.main(__doc__, "BENCH_seminorm.json", measure, argv)


if __name__ == "__main__":
    sys.exit(main())
