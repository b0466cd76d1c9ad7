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

The flags and the file layout (BENCH_sharpness.json by default) are
harness.py's.
"""

from __future__ import annotations

import sys

import numpy as np

import harness
from harness import Calls, summary, timed

# (d, m, budget, repeats)
SEARCHES = [(2, 1, 2, 5), (2, 1, 8, 3), (2, 2, 6, 3), (3, 1, 2, 3), (3, 2, 6, 1),
            (3, 3, 4, 1)]
# (d, m, shifts, repeats)
SUPS = [(2, 2, (0.3, 0.7), 20), (3, 2, (0.3, 0.7), 5)]


def search_row(d, m, budget, repeats):
    from chargelab import inequalities

    with Calls(inequalities, "_shifted_antiderivative") as calls:
        res, times = timed(lambda: inequalities.sharpness_search(
            d, m, 1.0, budget=budget, seed=1), repeats)
    label = f"sharpness_search d={d} m={m} budget={budget}"
    if res.best_ratio > 1 + 1e-6 or (m == 1 and res.best_ratio < 0.999):
        raise SystemExit(f"{label}: best ratio {res.best_ratio!r}")
    return {"case": label, "repeats": repeats, **summary(times, "s"),
            "antiderivative_calls": calls.calls // repeats,
            "best_ratio": res.best_ratio,
            "best_shifts": [float(s) for s in res.best_shifts],
            "trajectory": [r for _, r in res.trajectory]}


def sup_row(d, m, shifts, repeats):
    from chargelab.inequalities import _shifted_sup

    value, times = timed(lambda: _shifted_sup(1.0, d, m, np.array(shifts)), repeats)
    return {"case": f"_shifted_sup d={d} m={m} shifts={list(shifts)}",
            "repeats": repeats, **summary(times), "value": value}


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


def measure(args):
    rows = [search_row(*case) for case in SEARCHES]
    rows += [sup_row(*case) for case in SUPS]
    rows.append(split_point_row())
    return {"sharpness": rows}


def main(argv=None) -> int:
    return harness.main(__doc__, "BENCH_sharpness.json", measure, argv)


if __name__ == "__main__":
    sys.exit(main())
