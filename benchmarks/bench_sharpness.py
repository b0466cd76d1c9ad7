"""Time the exploratory sharpness search for the mixed inequality and record
before/after figures.

Run from the repository root:

    python benchmarks/bench_sharpness.py                    # print the rows
    python benchmarks/bench_sharpness.py --label after \\
        --lkbench .lkbench_out/cli-session-seed1-trace0.json ...

Rows:

- `sharpness_search(d, m, 1.0, budget, seed=1)` at (d, m, budget) =
  (2, 1, 2), (2, 1, 8), (2, 2, 6), (3, 1, 2), (3, 2, 6) and (3, 3, 4), with
  the best ratio, the best shifts, the trajectory and the number of
  `_shifted_antiderivative` calls per search;
- one `_shifted_sup` call at d = 2 and at d = 3 (m = 2, fixed shifts), with
  its value;
- the m = 1 sup at the split point against its closed form
  h^(d+1)/(2(d+1)), d = 1..3, h in {0.75, 1, 1.25}: the worst relative error.

Each search row checks that the best ratio is at most 1 + 1e-6 and, for
m = 1 (the control, whose optimum is the split point), at least 0.999.

With --label the rows are stored in the --out file (BENCH_sharpness.json by
default) under that label, next to the Python, NumPy and SciPy versions.
--src times another checkout's sources (say, the parent commit's `src`).
--lkbench adds lkbench result files under the same label, and once both
labels hold runs of one workload and seed, the file gets a comparison as in
bench_windows.py.  As there, the rows get no before/after ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_windows import ROOT, compare, environment, read_lkbench

BENCH_FILE = ROOT / "BENCH_sharpness.json"
# (d, m, budget, repeats)
SEARCHES = [(2, 1, 2, 5), (2, 1, 8, 3), (2, 2, 6, 3), (3, 1, 2, 3), (3, 2, 6, 1),
            (3, 3, 4, 1)]
# (d, m, shifts, repeats)
SUPS = [(2, 2, (0.3, 0.7), 20), (3, 2, (0.3, 0.7), 5)]


class Calls:
    """Counts the _shifted_antiderivative calls made inside `inequalities`."""

    def __init__(self, module):
        self.module, self.inner, self.calls = module, module._shifted_antiderivative, 0

    def __enter__(self):
        def counted(*a, **k):
            self.calls += 1
            return self.inner(*a, **k)

        self.module._shifted_antiderivative = counted
        return self

    def __exit__(self, *exc):
        self.module._shifted_antiderivative = self.inner


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def search_row(d, m, budget, repeats):
    from chargelab import inequalities

    with Calls(inequalities) as calls:
        res, times = timed(lambda: inequalities.sharpness_search(
            d, m, 1.0, budget=budget, seed=1), repeats)
    label = f"sharpness_search d={d} m={m} budget={budget}"
    if res.best_ratio > 1 + 1e-6 or (m == 1 and res.best_ratio < 0.999):
        raise SystemExit(f"{label}: best ratio {res.best_ratio!r}")
    return {"case": label, "repeats": repeats,
            "best_s": min(times), "median_s": statistics.median(times),
            "antiderivative_calls": calls.calls // repeats,
            "best_ratio": res.best_ratio,
            "best_shifts": [float(s) for s in res.best_shifts],
            "trajectory": [r for _, r in res.trajectory]}


def sup_row(d, m, shifts, repeats):
    from chargelab.inequalities import _shifted_sup

    value, times = timed(lambda: _shifted_sup(1.0, d, m, np.array(shifts)), repeats)
    return {"case": f"_shifted_sup d={d} m={m} shifts={list(shifts)}",
            "repeats": repeats, "best_ms": 1e3 * min(times),
            "median_ms": 1e3 * statistics.median(times), "value": value}


def split_point_row():
    from chargelab.inequalities import _shifted_sup, split_point

    worst = 0.0
    for d in (1, 2, 3):
        for h in (0.75, 1.0, 1.25):
            want = h ** (d + 1) / (2 * (d + 1))
            worst = max(worst, abs(_shifted_sup(h, d, 1, [split_point(h, d)])
                                   - want) / want)
    return {"case": "m=1 split-point sup vs h^(d+1)/(2(d+1)), d=1..3, 3 h",
            "worst_rel_err": worst}


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
    rows = [search_row(*case) for case in SEARCHES]
    rows += [sup_row(*case) for case in SUPS]
    rows.append(split_point_row())
    for row in rows:
        print(json.dumps(row), flush=True)
    if not args.label:
        return 0
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("environment", {})[args.label] = environment()
    bench.setdefault("sharpness", {})[args.label] = rows
    if args.lkbench:
        lk = bench.setdefault("lkbench", {})
        lk[args.label] = read_lkbench(args.lkbench, lk.setdefault("units", {}))
        lk["comparison"] = compare(lk)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
