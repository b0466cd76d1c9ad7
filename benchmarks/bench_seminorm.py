"""Time seminorm_K, the sup over h of the fixed-h seminorm, and record
before/after figures.

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
- `verify --case extremal-charge --d 3` end to end, in a fresh process.

Each row counts the `seminorm_Kh` sweeps and checks the value: the extremal
values against the sweep at h_max (a charge that is >= 0 has its sup
there) and within 5e-3 (midpoint quadrature on 48^3 cells) of the closed
form h^(d+1) mu / (d+1).

With --label the rows are stored in the --out file (BENCH_seminorm.json by
default) under that label, next to the Python, NumPy and SciPy versions.
--src times another checkout's sources (say, the parent commit's `src`).
--lkbench adds lkbench result files under the same label, and once both
labels hold runs of one workload and seed, the file gets a comparison as in
bench_windows.py.  As there, the rows get no before/after ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_windows import ROOT, compare, environment, read_lkbench

BENCH_FILE = ROOT / "BENCH_seminorm.json"
BOX_REPEATS = 5
# body, d, m, h, cells per axis, grid margin over h
BOX_HSUP = ("box", 3, 1, 1.0, 64, 0.25)
BALL_128 = ("ball", 3, 0, 1.0, 128, 0.25)


class Sweeps:
    """Counts the seminorm_Kh calls that seminorm_K makes."""

    def __init__(self, charges):
        self.charges, self.inner, self.calls = charges, charges.seminorm_Kh, 0

    def __enter__(self):
        def counted(*a, **k):
            self.calls += 1
            return self.inner(*a, **k)

        self.charges.seminorm_Kh = counted
        return self

    def __exit__(self, *exc):
        self.charges.seminorm_Kh = self.inner


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


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def extremal_row(case, include, repeats):
    from chargelab import charges

    body, d, m, h, n, margin = case
    nu, K, C = extremal(*case)
    nu.prefix()
    with Sweeps(charges) as sweeps:
        res, times = timed(lambda: charges.seminorm_K(
            nu, K, 2.5 * h, include_h=[h] if include else ()), repeats)
    check_extremal(body, nu, K, C, h, res)
    return {"case": f"seminorm_K {body} d={d} m={m} n={n}"
                    + (" include_h=[h]" if include else ""),
            "repeats": repeats, "best_ms": 1e3 * min(times),
            "median_ms": 1e3 * statistics.median(times),
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
    with Sweeps(charges) as sweeps:
        t0 = time.perf_counter()
        results = [charges.seminorm_K(nu, K, 2.5 * h, include_h=[h])
                   for d, m, h, nu, K, C in charged]
        seconds = time.perf_counter() - t0
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
    with Sweeps(charges) as sweeps:
        t0 = time.perf_counter()
        results = [charges.seminorm_K(nu, K, default_h_max(nu, K)) for nu, K in signed]
        seconds = time.perf_counter() - t0
    # the parent's result has no gap
    gaps = [res.gap for res in results if hasattr(res, "gap")]
    rows.append({"case": "criterion 05 signed suite (30 charges)", "seconds": seconds,
                 "seminorm_Kh_calls": sweeps.calls,
                 "gaps_zero": sum(g == 0.0 for g in gaps) if gaps else None,
                 "max_gap": max(gaps) if gaps else None})
    return rows


def verify_row(src):
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "chargelab.cli", "verify", "--case",
                        "extremal-charge", "--d", "3", "--out", out],
                       env=env, check=True, capture_output=True)
        seconds = time.perf_counter() - t0
    return {"case": "verify --case extremal-charge --d 3 (fresh process)",
            "seconds": seconds}


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
    rows = [extremal_row(BOX_HSUP, True, BOX_REPEATS),
            extremal_row(BOX_HSUP, False, BOX_REPEATS)]
    rows += criterion05_rows()
    rows += [extremal_row(BALL_128, True, 1), extremal_row(BALL_128, False, 1)]
    rows.append(verify_row(args.src))
    for row in rows:
        print(json.dumps(row), flush=True)
    if not args.label:
        return 0
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("environment", {})[args.label] = environment()
    bench.setdefault("seminorm_K", {})[args.label] = rows
    if args.lkbench:
        lk = bench.setdefault("lkbench", {})
        lk[args.label] = read_lkbench(args.lkbench, lk.setdefault("units", {}))
        lk["comparison"] = compare(lk)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
