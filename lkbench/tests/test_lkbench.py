"""Tests of the benchmark itself: its checks reject wrong outputs, self time
is computed correctly, and the runner refuses to run without the program.

    python3 -m pytest lkbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time -----------------------------------------------------------------


def test_self_time_on_hand_made_tree():
    # op [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds d [5, 6] and e [7, 8.5].  Rows are in end order, as recorded.
    rows = [  # sid, parent, t0, t1
        (3, 1, 2.0, 3.0),
        (1, 0, 1.0, 4.0),
        (4, 2, 5.0, 6.0),
        (5, 2, 7.0, 8.5),
        (2, 0, 5.0, 9.0),
        (0, -1, 0.0, 10.0),
    ]
    sid, parent, t0, t1 = (np.array(c) for c in zip(*rows))
    got = dict(zip(sid.tolist(), tracing.self_times(sid, parent, t0, t1).tolist()))
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.5, 3: 1.0, 4: 1.0, 5: 1.5})


def test_tracer_self_times_sum_to_the_operation():
    tr = tracing.Tracer()

    def inner():
        return sum(range(20000))

    def layer():
        tr.add("windows.kernel_queries", 7)
        return tr.call("windows.kernel", inner) + tr.call("charges.mask", inner)

    tr.run_op(0, lambda: tr.call("steklov.deviation", layer))
    (row,) = tr.op_metrics([0])
    cols = tr.columns()
    op_dur = float(cols["t1"][-1] - cols["t0"][-1])
    times = [v for k, v in row.items() if k in set(tracing.TIME_METRICS.values())]
    assert sum(times) == pytest.approx(op_dur, rel=1e-9)
    assert row["windows.kernel_s"] > 0 and row["charges.mask_s"] > 0
    assert row["windows.kernel_queries"] == 7
    # outside an operation nothing is recorded
    assert tr.call("windows.kernel", inner) == inner()
    assert len(tr.columns()["sid"]) == 4


def test_tail_percentile_has_ten_samples_beyond_it():
    times = [float(i) for i in range(40)]
    assert run._tail(times) == "p75.0 = 29.000000 s"
    assert "fewer than 40" in run._tail(times[:39])


def test_p90_is_nearest_rank():
    # 20 times: the 18th smallest has 90% at or below it
    times = [float(i) for i in range(20, 0, -1)]
    assert run._percentile(times, 90) == 18.0
    assert run._percentile(times[1:], 90) == 18.0  # 19 times: rank ceil(17.1) = 18
    assert run._percentile([3.0], 90) == 3.0


# -- the checks reject wrong outputs --------------------------------------------


@pytest.fixture(scope="module")
def box():
    inp = workloads.box_build(3, None)
    return inp, workloads.box_op(inp, 0)


def test_box_check_accepts_the_program_output(box):
    inp, out = box
    assert workloads.box_check(inp, out) == []


def test_box_check_rejects_density_scaled_by_1_5(box):
    from chargelab import GridField

    inp, _ = box
    honest = inp["density"]
    corrupted = GridField(
        grid=honest.grid, values=1.5 * honest.values,
        value_fn=lambda pts: 1.5 * honest.value_fn(pts),
        grad_fn=honest.grad_fn, sup_candidates=list(honest.sup_candidates))
    bad = dict(inp, density=corrupted)
    errs = workloads.box_check(bad, workloads.box_op(bad, 0))
    assert any("!= h" in e for e in errs)
    assert any("not an equality" in e for e in errs)


def test_box_check_rejects_seminorm_off_by_one_cell(box):
    inp, out = box
    grid = inp["grid"]
    cell_mass = inp["h"] * grid.cell_volume
    out["additive"].extras["seminorm_Kh"] += cell_mass
    try:
        errs = workloads.box_check(inp, out)
    finally:
        out["additive"].extras["seminorm_Kh"] -= cell_mass
    assert any("origin window sum" in e for e in errs)


def test_mixed_check_rejects_wrong_sup():
    inp = workloads.mixed_build(4, None)
    out = workloads.mixed_op(inp, 0)
    assert workloads.mixed_check(inp, out) == []
    out[1][1].extras["f_sup"] *= 1 + 1e-6
    assert any("sup|f|" in e for e in workloads.mixed_check(inp, out))
    out[1][1].extras["f_sup"] /= 1 + 1e-6
    p, f = inp["cases"][0]
    inp["cases"][0] = (p, f.scaled(1.5))
    errs = workloads.mixed_check(inp, workloads.mixed_op(inp, 0))
    assert any("sup|mixed derivative|" in e for e in errs)


def test_general_check_rejects_wrong_outputs():
    inp = workloads.general_build(5, None)
    out = workloads.general_op(inp, 0)
    assert workloads.general_check(inp, out) == []
    cell_mass = inp["h"] * inp["grid"].cell_volume
    for key, change in (("ball", lambda v: v + cell_mass),
                        ("hexagon", lambda v: v - cell_mass),
                        ("layer_cake", lambda v: 1.01 * v)):
        bad = dict(out, **{key: change(out[key])})
        assert workloads.general_check(inp, bad), key
    swapped = dict(out, ball=out["hexagon"], hexagon=out["ball"])
    assert len(workloads.general_check(inp, swapped)) >= 2


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    inp = workloads.cli_build(6, workdir)
    return inp, workloads.cli_op(inp, 0)


def _change_one_number(path: Path, row: int, column: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(float(cells[j]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_cli_check_accepts_the_program_output(cli_run):
    inp, out = cli_run
    assert workloads.cli_check(inp, out) == []


@pytest.mark.parametrize("relpath,row,column,factor", [
    ("stechkin-curve/stechkin_curve.csv", 5, "E_N", 1 + 1e-6),
    ("stechkin-curve/omega_curve.csv", 3, "omega", 1 - 1e-6),
    ("recover/recovery.csv", 1, "err_worst", 1.01),
    ("verify-extremal/report.csv", 0, "lhs", 1 + 1e-9),
    ("sharpness-search/sharpness_trajectory.csv", 2, "best_ratio", 0.99),
])
def test_cli_check_rejects_one_changed_number(cli_run, tmp_path, relpath, row,
                                               column, factor):
    inp, out = cli_run
    copy = tmp_path / "op"
    shutil.copytree(out["dir"], copy)
    _change_one_number(copy / relpath, row, column, factor)
    assert workloads.cli_check(inp, dict(out, dir=copy))


def test_cli_check_rejects_nonzero_exit(cli_run):
    inp, out = cli_run
    codes = dict(out["codes"], recover=1)
    errs = workloads.cli_check(inp, dict(out, codes=codes))
    assert errs == ["recover: exit code 1"]


# -- the runner ------------------------------------------------------------------


def test_traced_worker_reports_every_layer_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "cli-session",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--mode", "repeat"],
        env=run._env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["incorrect"] == 0 and res["failed"] == 0
    assert set(run.PER_LAYER) <= set(res["layers"])
    assert all(len(v) == 1 for v in res["repeat_counts"].values())
    assert res["layers"]["cli.output_bytes"] > 0
    assert res["layers"]["golden.evals"] > 0


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "box-hsup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
