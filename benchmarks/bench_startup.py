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

With --label the rows are stored in the --out file (BENCH_startup.json by
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
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_windows import ROOT, _quartiles, compare, environment, read_lkbench

sys.path.insert(0, str(ROOT / "lkbench"))
from run import THREAD_VARS  # noqa: E402  (lkbench's one-thread pinning)

BENCH_FILE = ROOT / "BENCH_startup.json"
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


def _run(cmd, env, cwd=None, ok=(0,)) -> subprocess.CompletedProcess:
    """Run cmd; stop the benchmark unless its exit code is in `ok`."""
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)
    if proc.returncode not in ok:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


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
        proc = _run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], env)
        wall, n_scipy = proc.stdout.split()
        walls.append(float(wall))
        scipy_modules.add(int(n_scipy))
        layers.append(_self_times(proc.stderr))
    names = ("numpy", "scipy", "chargelab")
    q1, med, q3 = _quartiles(walls)
    return {"case": "import chargelab", "repeats": IMPORT_REPEATS,
            "q1_s": q1, "median_s": med, "q3_s": q3,
            "scipy_modules": sorted(scipy_modules),
            "self_s": {n: statistics.median(t.get(n, 0.0) for t in layers)
                       for n in names}}


def cli_row(src: str, argv: list) -> dict:
    env = _env(src)
    walls, codes = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(CLI_REPEATS):
            t0 = time.perf_counter()
            proc = _run([sys.executable, "-m", "chargelab.cli", *argv,
                         "--out", str(Path(tmp) / str(i))], env, cwd=tmp,
                        ok=(0, 1))
            walls.append(time.perf_counter() - t0)
            codes.add(proc.returncode)
    q1, med, q3 = _quartiles(walls)
    return {"case": "cli " + " ".join(argv), "repeats": CLI_REPEATS,
            "q1_s": q1, "median_s": med, "q3_s": q3, "exit_codes": sorted(codes)}


def fault_row(src: str, workload: str) -> dict:
    code = FAULT_PROBE.format(lkbench=str(ROOT / "lkbench"), workload=workload,
                              ops=FAULT_OPS)
    proc = _run([sys.executable, "-c", code], _env(src))
    return {"case": f"lkbench {workload} in process", "ops": FAULT_OPS,
            **json.loads(proc.stdout.strip().splitlines()[-1])}


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

    src = str(Path(args.src).resolve())
    rows = [import_row(src)]
    rows += [cli_row(src, argv) for argv in CLI_COMMANDS]
    rows += [fault_row(src, w) for w in WORKLOADS]
    for row in rows:
        print(json.dumps(row), flush=True)
    if not args.label:
        return 0
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("environment", {})[args.label] = environment()
    bench.setdefault("startup", {})[args.label] = rows
    if args.lkbench:
        lk = bench.setdefault("lkbench", {})
        lk[args.label] = read_lkbench(args.lkbench, lk.setdefault("units", {}))
        lk["comparison"] = compare(lk)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
