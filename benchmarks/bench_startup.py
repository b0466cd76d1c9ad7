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
- lkbench's `general-body` build (`workloads.general_build`: the 2-ball
  and the hexagon by vertices, their extremal densities on 24^2 cells) in a
  fresh process that has imported NumPy and chargelab: its wall time (median
  and quartiles of IMPORT_REPEATS processes) and the number of `scipy`
  modules in `sys.modules` after it;
- `verify --case nagy-extremal --d 2` with the 1-ball and the skewed
  halfspaces cone SKEWED_2 in a fresh process (VERIFY_REPEATS processes):
  the wall time of the process (median and quartiles), its peak resident
  set size (median), the number of `scipy` modules it loaded and the
  SHA-256 of its report files, so that both labels' outputs can be compared
  byte for byte;
- the first `volume_body_cone` call in a fresh process that has imported
  chargelab (the box at d = 3 with 2 coordinate faces): its wall time
  (median and quartiles of IMPORT_REPEATS processes), which holds any
  import the call makes, and the number of `scipy` modules after it;
- polytope completion in process (`ConvexBody.polytope`, after one warm-up
  call): the hexagon, the 4-D cross-polytope and the 24-cell by vertices,
  and the cube by facets;
- μ(K∩C) in process (`volume_body_cone`, after one warm-up call, so that an
  import made by the first call is not timed): the box and the 1-ball with
  2 coordinate faces at d = 2..6, the hexagon with SKEWED_2 and the 24-cell
  with 3 coordinate faces; and `cone_has_interior` on the skewed 3-face cone
  SKEWED_3;
- `windows.lattice_window_sums` in process (after one warm-up call) on
  fixed-seed normal values at 24^2, 128^2, 48^3 and 96^3 cells, with the
  0/1 indicator of a Euclidean ball of radius n/3 cells;
- lkbench's `box-hsup` and `general-body` workloads in process: minor
  page faults (`ru_minflt`) per operation, the median over FAULT_OPS
  operations after one warm-up, and the peak resident set size.  There is
  no `cli-session` row: its faults per operation moved with the checkout's
  path for the same code (255 to 1,476), so the row could not tell an
  allocator change from path noise.
  The process imports NumPy, SciPy's top-level package and chargelab in
  the order lkbench's worker does, since the allocator's state (and so the
  faults) depends on what was imported.  Operation times are lkbench's to
  measure (its runs go in the file with --lkbench).

The flags and the file layout (BENCH_startup.json by default) are
harness.py's.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

import harness
from harness import ALL_STATS, ROOT, summary, timed

sys.path.insert(0, str(ROOT / "lkbench"))
from run import THREAD_VARS  # noqa: E402  (lkbench's one-thread pinning)

IMPORT_REPEATS = 11
CLI_REPEATS = 5
FAULT_OPS = 10
CLI_COMMANDS = [["verify", "--case", "extremal-charge"],
                ["verify", "--case", "mixed-m1"],
                ["stechkin-curve"], ["recover"], ["sharpness-search"]]
FAULT_WORKLOADS = ["box-hsup", "general-body"]
COMPLETION_REPEATS = 50
# cells per axis, dimension, timed calls
CORRELATION_CASES = [(24, 2, 200), (128, 2, 30), (48, 3, 20), (96, 3, 5)]
VERIFY_REPEATS = 11
MU_REPEATS = 20
SKEWED_2 = [[1, 0.3141], [0.2718, 1]]
SKEWED_3 = [[1, 0.3141, -0.2], [0.2718, 1, 0.1], [0.05, -0.1, 1]]
VERIFY_CONFIG = ("body: {kind: pball, p: 1}\n"
                 f"cone: {{kind: halfspaces, normals: {SKEWED_2}}}\n")

IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import chargelab
t1 = time.perf_counter()
print(t1 - t0, sum(1 for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""

BUILD_PROBE = """
import pathlib, sys, tempfile, time
sys.path.insert(0, {lkbench!r})
import numpy, chargelab
import workloads

with tempfile.TemporaryDirectory() as tmp:
    t0 = time.perf_counter()
    workloads.WORKLOADS["general-body"].build(1, pathlib.Path(tmp))
    t1 = time.perf_counter()
print(t1 - t0, sum(1 for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""

VERIFY_PROBE = """
import resource, sys
from chargelab.cli import main

code = main({argv!r})
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
      sum(1 for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""

FIRST_VOLUME_PROBE = """
import sys, time
import numpy as np
import chargelab
from chargelab import Cone, ConvexBody, volume_body_cone

t0 = time.perf_counter()
volume_body_cone(ConvexBody.box(3), Cone.halfspaces(np.eye(3)[:2]))
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


def probe_row(src: str, case: str, code: str) -> dict:
    """The wall time (median and quartiles of IMPORT_REPEATS fresh processes)
    and `scipy` module count that the probe `code` prints."""
    walls, scipy_modules = [], set()
    for _ in range(IMPORT_REPEATS):
        wall, n_scipy = harness.run([sys.executable, "-c", code], _env(src)).stdout.split()
        walls.append(float(wall))
        scipy_modules.add(int(n_scipy))
    return {"case": case, "repeats": IMPORT_REPEATS,
            **summary(walls, "s", ("q1", "median", "q3")),
            "scipy_modules": sorted(scipy_modules)}


def verify_row(src: str) -> dict:
    walls, rss, codes, scipy_modules, digests = [], [], set(), set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cone.yaml"
        config.write_text(VERIFY_CONFIG)
        for i in range(VERIFY_REPEATS):
            out = Path(tmp) / str(i)
            argv = ["verify", "--case", "nagy-extremal", "--d", "2",
                    "--config", str(config), "--out", str(out)]
            code = VERIFY_PROBE.format(argv=argv)
            proc, (wall,) = timed(lambda: harness.run([sys.executable, "-c", code],
                                                      _env(src), cwd=tmp))
            code, peak, n_scipy = proc.stdout.split()
            walls.append(wall)
            rss.append(float(peak))
            codes.add(int(code))
            scipy_modules.add(int(n_scipy))
            reports = b"".join((out / f).read_bytes()
                               for f in ("report.csv", "report.json"))
            digests.add(hashlib.sha256(reports).hexdigest())
    return {"case": "cli verify --case nagy-extremal --d 2, 1-ball, skewed halfspaces "
                    "cone, fresh process", "repeats": VERIFY_REPEATS,
            **summary(walls, "s", ("q1", "median", "q3")),
            "peak_rss_mb": statistics.median(rss), "exit_codes": sorted(codes),
            "scipy_modules": sorted(scipy_modules), "report_sha256": sorted(digests)}


def cell_24() -> list:
    """The 24 vertices +-e_i +- e_j (i < j) of the 24-cell."""
    E = np.eye(4)
    return [s * E[i] + t * E[j] for i in range(4) for j in range(i + 1, 4)
            for s in (1, -1) for t in (1, -1)]


def completion_rows() -> list:
    from chargelab import ConvexBody

    E = np.eye(4)
    cube = [(s * np.eye(3)[i], 1.0) for i in range(3) for s in (1, -1)]
    bodies = {"hexagon by vertices": harness.hexagon,
              "cube by facets": lambda: ConvexBody.polytope(3, facets=cube),
              "4-D cross-polytope by vertices":
                  lambda: ConvexBody.polytope(4, vertices=np.vstack([E, -E])),
              "24-cell by vertices": lambda: ConvexBody.polytope(4, vertices=cell_24())}
    rows = []
    for name, build in bodies.items():
        K, times = timed(build, COMPLETION_REPEATS, warmup=True)
        rows.append({"case": f"polytope completion {name}", "repeats": COMPLETION_REPEATS,
                     **summary(times, "ms", ALL_STATS), "vertices": len(K.vertices),
                     "facets": len(K.facet_offsets)})
    return rows


def volume_rows() -> list:
    from chargelab import Cone, ConvexBody, volume_body_cone
    from chargelab.geometry import cone_has_interior

    pairs = {**{f"{name} d={d}, 2 faces": (body(d), Cone.halfspaces(np.eye(d)[:2]))
                for name, body in (("box", ConvexBody.box),
                                   ("1-ball", lambda d: ConvexBody.pball(d, 1.0)))
                for d in range(2, 7)},
             "hexagon, skewed cone": (harness.hexagon(), Cone.halfspaces(SKEWED_2)),
             "24-cell, 3 faces": (ConvexBody.polytope(4, vertices=cell_24()),
                                  Cone.halfspaces(np.eye(4)[:3]))}
    rows = []
    for name, (K, C) in pairs.items():
        v, times = timed(lambda: volume_body_cone(K, C), MU_REPEATS, warmup=True)
        rows.append({"case": f"volume_body_cone {name}", "repeats": MU_REPEATS,
                     **summary(times, "ms", ALL_STATS), "value": v.value,
                     "method": v.method})
    C = Cone.halfspaces(SKEWED_3)
    inside, times = timed(lambda: cone_has_interior(C), MU_REPEATS, warmup=True)
    rows.append({"case": "cone_has_interior skewed 3-face cone", "repeats": MU_REPEATS,
                 **summary(times, "ms", ALL_STATS), "value": inside})
    return rows


def correlation_rows() -> list:
    from chargelab import windows

    rows = []
    for n, d, repeats in CORRELATION_CASES:
        values = np.random.default_rng(n + d).normal(size=(n,) * d)
        r = n // 3
        offsets = np.meshgrid(*[np.arange(-r, r + 1)] * d, indexing="ij")
        indicator = (sum(o.astype(float) ** 2 for o in offsets) < r * r).astype(float)
        _, times = timed(lambda: windows.lattice_window_sums(values, indicator), repeats,
                         warmup=True)
        rows.append({"case": f"lattice_window_sums {n}^{d}", "repeats": repeats,
                     **summary(times, "ms", ALL_STATS)})
    return rows


def fault_row(src: str, workload: str) -> dict:
    code = FAULT_PROBE.format(lkbench=str(ROOT / "lkbench"), workload=workload,
                              ops=FAULT_OPS)
    proc = harness.run([sys.executable, "-c", code], _env(src))
    return {"case": f"lkbench {workload} in process", "ops": FAULT_OPS,
            **json.loads(proc.stdout.strip().splitlines()[-1])}


def measure(args):
    rows = [import_row(args.src)]
    rows += [cli_row(args.src, argv) for argv in CLI_COMMANDS]
    rows += [probe_row(args.src, "lkbench general-body build, fresh process",
                       BUILD_PROBE.format(lkbench=str(ROOT / "lkbench"))),
             verify_row(args.src),
             probe_row(args.src, "first volume_body_cone call (box d=3, 2 faces), "
                       "fresh process", FIRST_VOLUME_PROBE)]
    rows += [fault_row(args.src, w) for w in FAULT_WORKLOADS]
    # in process last: a child started later would inherit this process's
    # peak resident set size in its own ru_maxrss
    rows += [*completion_rows(), *volume_rows(), *correlation_rows()]
    return {"startup": rows}


def main(argv=None) -> int:
    return harness.main(__doc__, "BENCH_startup.json", measure, argv)


if __name__ == "__main__":
    sys.exit(main())
