"""chargelab benchmark: run one workload and print its metrics.

    python3 lkbench/run.py --workload box-hsup --seed 1 --seconds 35 --trace 0

Run from the repository root.  The workload runs in its own fresh process
with one thread (BLAS and OpenMP thread variables pinned to 1) as a closed
loop: each operation starts when the previous one ends.  The first
operation is a warm-up and is not timed.  Every output is checked.

--trace 0 prints the end-to-end metrics: op_p90_s (the 90th percentile of
the operation times), setup_s (the median over SETUP_SAMPLES fresh
processes, half of them started before the measuring process and half
after it, of the time from interpreter start to the first operation) and
peak_rss_mb.  The median operation time and the operations per second are
printed for information only: the hosts this runs on change speed in
phases lasting seconds to over a minute, so the median and the mean of one
run move with the share of the run spent in fast phases, while the 90th
percentile reads the slow, sustained level (README.md, Steadiness).

--trace 1 installs the layer wrappers of tracing.py and prints the
per-layer metrics, medians per operation; it also runs a second traced process with the same seed and
reports whether the per-layer counts repeat exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up samples per run: setup-only processes plus the measuring process
SETUP_SAMPLES = 5
PER_LAYER = {
    "windows.kernel_s": "s", "windows.kernel_calls": "count",
    "windows.kernel_queries": "count", "windows.kernel_ns_per_query": "ns",
    "windows.prefix_s": "s", "windows.prefix_cells": "count",
    "windows.index_ranges_s": "s",
    "charges.seminorm_Kh_calls": "count", "charges.hsup_s": "s",
    "charges.mask_s": "s", "charges.mask_windows": "count",
    "charges.overlap_s": "s", "charges.overlap_windows": "count",
    "steklov.deviation_s": "s",
    "grids.callback_s": "s", "grids.callback_points": "count",
    "grids.callback_points_per_cell": "count/cell",
    "geometry.gauge_s": "s", "geometry.gauge_points": "count",
    "geometry.lattice_s": "s",
    "inequalities.mixed_deviation_s": "s",
    "inequalities.sharpness_s": "s", "golden.evals": "count",
    "stechkin.recover_s": "s", "stechkin.sandwich_s": "s",
    "cli.output_s": "s", "cli.output_bytes": "B",
    "unattributed_s": "s",
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, mode: str, trace: int, timeout: float) -> tuple[float, dict]:
    """Start one worker process; return (spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err[-4000:]}")
    return spawned, json.loads(lines[-1])


def _percentile(times: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest time with p% of times at or below it."""
    s = sorted(times)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def _tail(times: list[float]) -> str:
    """Highest percentile with ten samples beyond it (needs 40 samples)."""
    n = len(times)
    if n < 40:
        return "no tail percentile (fewer than 40 samples)"
    s = sorted(times)
    return f"p{100.0 * (n - 10) / n:.1f} = {s[n - 11]:.6f} s"


def _versions(res: dict, seed: int) -> str:
    v = res["versions"]
    return (f"python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
            f"windows.KERNEL {v['kernel']}, os.cpu_count() {v['cpu_count']}, "
            f"seed {seed}")


def _setup_sample(args) -> float:
    spawned, res = _worker(args, "setup", 0, 120)
    return res["ready"] - spawned


def _untraced(args) -> dict:
    # Half the setup-only samples come before the measuring process and half
    # after it, so that a run's samples do not all fall in one phase of the
    # host's speed.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [_setup_sample(args) for _ in range(before)]
    spawned, res = _worker(args, "run", 0, args.seconds + 150)
    setups.append(res["ready"] - spawned)
    setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1 - before)]
    times = res["op_times"]
    print(f"workload {args.workload}: {_versions(res, args.seed)}")
    print(f"operations timed: {len(times)} (plus 1 warm-up); {_tail(times)}")
    print(f"for information: op_p50_s {statistics.median(times):.6f} s, "
          f"ops_per_s {len(times) / res['timed_wall_s']:.6f} 1/s")
    print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
    res["metrics"] = {
        "op_p90_s": {"value": _percentile(times, 90), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res


def _traced(args) -> dict:
    _, res = _worker(args, "run", 1, args.seconds + 150)
    _, rep = _worker(args, "repeat", 1, 150)
    times = res["op_times"]
    print(f"workload {args.workload} (traced): {_versions(res, args.seed)}")
    print(f"operations timed: {len(times)} (plus 1 warm-up); traced op_p90_s "
          f"{_percentile(times, 90):.6f}, traced op_p50_s {statistics.median(times):.6f}")
    for key, values in res["repeat_counts"].items():
        both = sorted(set(values) | set(rep["repeat_counts"][key]))
        same = "yes" if len(both) == 1 else "NO"
        print(f"count {key} = {both} per op, in every op of two traced "
              f"processes with seed {args.seed}: repeats exactly: {same}")
    res["attempted"] += rep["attempted"]
    res["failed"] += rep["failed"]
    res["incorrect"] += rep["incorrect"]
    res["problems"] += rep["problems"]
    res["metrics"] = {k: {"value": res["layers"][k], "unit": u}
                      for k, u in PER_LAYER.items()}
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chargelab" / "__init__.py").is_file():
        print(f"no chargelab sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        res = _traced(args) if args.trace else _untraced(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for p in res["problems"]:
        print(f"PROBLEM {p}", file=sys.stderr)
    summary = {"correct": res["incorrect"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": res["metrics"]}
    out_dir = ROOT / ".lkbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**summary, "versions": res["versions"],
                   "op_times": res["op_times"], "problems": res["problems"]},
                  fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
