"""One workload process: set up, warm up, run a closed loop of operations.

Started by run.py in a fresh interpreter with the thread variables pinned
to 1 and ``src`` on PYTHONPATH.  Prints one JSON object as its last line.

Modes:
  setup   import and build the inputs, then stop (a set-up time sample)
  run     warm-up operation, then operations until --seconds have passed
  repeat  warm-up operation, then exactly one operation (traced count check)
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".lkbench_out"


def _median_per_key(metrics: list[dict]) -> dict:
    keys = metrics[0].keys() if metrics else []
    return {k: statistics.median(m[k] for m in metrics) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run", "repeat"), default="run")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import chargelab
    from chargelab import windows

    import tracing
    import workloads

    src = (ROOT / "src").resolve()
    if Path(chargelab.__file__).resolve().parent.parent != src:
        print(f"chargelab imported from {chargelab.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = OUT / f"work-{os.getpid()}"
    inputs = wl.build(args.seed, workdir)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(result))
        return 0

    def run(index):
        if tracer is None:
            return wl.op(inputs, index)
        return tracer.run_op(index, lambda: wl.op(inputs, index))

    outputs, problems = [], []
    failed = 0
    op_times = []
    t_start = None
    index = 0
    while True:
        t0 = time.perf_counter()
        try:
            outputs.append(run(index))
        except Exception:  # an operation that raises counts as failed
            failed += 1
            outputs.append(None)
            problems.append(f"op {index} raised:\n{traceback.format_exc()}")
        t1 = time.perf_counter()
        if index == 0:
            t_start = t1  # the warm-up operation is not timed
        else:
            op_times.append(t1 - t0)
        index += 1
        if args.mode == "repeat" and index == 2:
            break
        if args.mode == "run" and index > 1 and t1 - t_start >= args.seconds:
            break
    timed_wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    incorrect = 0
    for i, out in enumerate(outputs):
        if out is None:
            continue
        errs = wl.check(inputs, out)
        if errs:
            incorrect += 1
            problems.extend(f"op {i}: {e}" for e in errs[:5])
    shutil.rmtree(workdir, ignore_errors=True)

    result.update({
        "attempted": len(outputs),
        "failed": failed,
        "incorrect": incorrect,
        "problems": problems[:20],
        "op_times": op_times,
        "timed_wall_s": timed_wall,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel": windows.KERNEL,
            "cpu_count": os.cpu_count(),
        },
    })
    if tracer is not None:
        timed = list(range(1, len(outputs)))
        per_op = tracer.op_metrics(timed)
        result["layers"] = _median_per_key(per_op)
        result["repeat_counts"] = {
            k: sorted({m[k] for m in per_op}) for k in tracing.REPEAT_COUNTS}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-{args.mode}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
