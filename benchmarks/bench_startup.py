"""Time chargelab's start-up and record before/after figures.

Run from the repository root:

    python benchmarks/bench_startup.py                      # print the rows
    python benchmarks/bench_startup.py --label after \\
        --lkbench .lkbench_out/box-hsup-seed1-trace0.json ...

Rows, each from fresh processes started with the thread variables of
lkbench pinned to 1:

- `import chargelab`: its wall time, measured in the process around the
  import statement under `python -X importtime` (median and quartiles of
  IMPORT_REPEATS processes), the number of `scipy` modules it leaves in
  `sys.modules`, and the self time of each top-level package that the
  import log lists (median per package over the same processes): the
  import's layers;
- the five CLI commands of lkbench's `cli-session`, at the CLI's default
  settings (`verify --case extremal-charge`, `verify --case mixed-m1`,
  `stechkin-curve`, `recover`, `sharpness-search`): the wall time of
  `python -m chargelab.cli ...` as a subprocess, CLI_REPEATS times, with
  its exit code;
- lkbench's `box-hsup`, `general-body` and `cli-session` workloads in
  process: minor page faults (`ru_minflt`) per operation, the median over
  FAULT_OPS operations after one warm-up, and the peak resident set size.
  The process imports NumPy, SciPy's top-level package and chargelab in
  the order lkbench's worker does, since the allocator's state (and so the
  faults) depends on what was imported.  Operation times are lkbench's to
  measure (its runs go in the file with --lkbench).

The flags and the file layout (BENCH_startup.json by default) are
harness.py's.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
import tempfile
from pathlib import Path

import harness
from harness import ROOT, summary, timed

sys.path.insert(0, str(ROOT / "lkbench"))
from run import THREAD_VARS  # noqa: E402  (lkbench's one-thread pinning)

IMPORT_REPEATS = 11
CLI_REPEATS = 5
FAULT_OPS = 10
CLI_COMMANDS = [["verify", "--case", "extremal-charge"],
                ["verify", "--case", "mixed-m1"],
                ["stechkin-curve"], ["recover"], ["sharpness-search"]]
WORKLOADS = ["box-hsup", "general-body", "cli-session"]

IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import chargelab
t1 = time.perf_counter()
print(t1 - t0, sum(1 for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""

FAULT_PROBE = """
import json, pathlib, resource, statistics, sys, tempfile
sys.path.insert(0, {lkbench!r})
import numpy, scipy, chargelab
import workloads

wl = workloads.WORKLOADS[{workload!r}]
with tempfile.TemporaryDirectory() as tmp:
    inputs = wl.build(1, pathlib.Path(tmp))
    faults = []
    for index in range({ops} + 1):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = wl.op(inputs, index)
        f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        errs = wl.check(inputs, out)
        if errs:
            sys.exit("wrong output: " + "; ".join(errs[:3]))
        if index:  # the warm-up operation is not counted
            faults.append(f1 - f0)
print(json.dumps({{"faults_per_op": statistics.median(faults),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def _env(src: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")


def _self_times(stderr: str) -> dict:
    """Self time in seconds per top-level package from -X importtime."""
    out = {}
    for self_us, name in IMPORTTIME.findall(stderr):
        top = name.split(".")[0]
        out[top] = out.get(top, 0.0) + int(self_us) * 1e-6
    return out


def import_row(src: str) -> dict:
    env = _env(src)
    walls, layers, scipy_modules = [], [], set()
    for _ in range(IMPORT_REPEATS):
        proc = harness.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], env)
        wall, n_scipy = proc.stdout.split()
        walls.append(float(wall))
        scipy_modules.add(int(n_scipy))
        layers.append(_self_times(proc.stderr))
    names = ("numpy", "scipy", "chargelab")
    return {"case": "import chargelab", "repeats": IMPORT_REPEATS,
            **summary(walls, "s", ("q1", "median", "q3")),
            "scipy_modules": sorted(scipy_modules),
            "self_s": {n: statistics.median(t.get(n, 0.0) for t in layers)
                       for n in names}}


def cli_row(src: str, argv: list) -> dict:
    env, codes = _env(src), set()
    with tempfile.TemporaryDirectory() as tmp:
        outs = (str(Path(tmp) / str(i)) for i in range(CLI_REPEATS))
        _, walls = timed(lambda: codes.add(harness.run(
            [sys.executable, "-m", "chargelab.cli", *argv, "--out", next(outs)],
            env, cwd=tmp, ok=(0, 1)).returncode), CLI_REPEATS)
    return {"case": "cli " + " ".join(argv), "repeats": CLI_REPEATS,
            **summary(walls, "s", ("q1", "median", "q3")),
            "exit_codes": sorted(codes)}


def fault_row(src: str, workload: str) -> dict:
    code = FAULT_PROBE.format(lkbench=str(ROOT / "lkbench"), workload=workload,
                              ops=FAULT_OPS)
    proc = harness.run([sys.executable, "-c", code], _env(src))
    return {"case": f"lkbench {workload} in process", "ops": FAULT_OPS,
            **json.loads(proc.stdout.strip().splitlines()[-1])}


def measure(args):
    rows = [import_row(args.src)]
    rows += [cli_row(args.src, argv) for argv in CLI_COMMANDS]
    rows += [fault_row(args.src, w) for w in WORKLOADS]
    return {"startup": rows}


def main(argv=None) -> int:
    return harness.main(__doc__, "BENCH_startup.json", measure, argv)


if __name__ == "__main__":
    sys.exit(main())
