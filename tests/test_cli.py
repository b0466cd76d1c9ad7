import json
import subprocess
import sys

import numpy as np
import pytest

from chargelab.cli import main
from chargelab.report import CSV_COLUMNS, InequalityReport, format_float, write_csv
from chargelab.svgplot import render_plot


def run(args):
    return main([str(a) for a in args])


# recovery.csv rows (seed 0) of `recover --deltas <key[0]> --d <key[1]>`, at
# grid 256 for d = 1 and grid 64 for d = 2
RECOVER_ROWS = {
    ("0.1,1.0", 1): [
        "0.10000000000000001,0.31622776601683794,0.31622776601683794,"
        "0.31622776601683794,0.11097120901094149",
        "1,1,1,1,0.48428013010361021"],
    ("0.1,4.0,1.0", 1): [
        "0.10000000000000001,0.31622776601683794,0.31622776601683794,"
        "0.31622776601683794,0.11097120901094149",
        "4,2,2,2,1.0075457434508412",
        "1,1,1,1,0.54427948742901422"],
    ("0.1,4.0,1.0", 2): [
        "0.10000000000000001,0.42171633265087466,0.42171633265087466,"
        "0.42171633265087466,0.064533017189079722",
        "4,1.4422495703074083,1.4422495703074083,1.4422495703074083,"
        "0.43051025833319595",
        "1,0.90856029641606983,0.90856029641606983,0.90856029641606983,"
        "0.28806876769144701"],
}


class TestReports:
    def rep(self, lhs=1.0, rhs=1.0005, middle=None, tol=1e-3):
        return InequalityReport(
            case="c", d=1, m=0, h=1.0, grid="32", lhs=lhs,
            rhs_terms={"t": rhs}, middle=middle, tol=tol,
        )

    def test_slack_and_equality(self):
        r = self.rep()
        assert r.slack == pytest.approx(5e-4)
        assert r.holds and r.equality
        assert not self.rep(rhs=0.9).holds
        assert self.rep(rhs=1.5).holds and not self.rep(rhs=1.5).equality

    def test_chain_ordering(self):
        assert self.rep(middle=1.0002).chain_ordered()
        assert not self.rep(middle=1.01).chain_ordered()
        assert self.rep(middle=None).chain_ordered()

    def test_validate_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            self.rep(lhs=float("nan")).validate()

    def test_csv_bytes_deterministic(self, tmp_path):
        reps = [self.rep(), self.rep(rhs=2.0, middle=1.5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, CSV_COLUMNS, [r.csv_row() for r in reps])
        write_csv(p2, CSV_COLUMNS, [r.csv_row() for r in reps])
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_float_roundtrip(self):
        for x in (1 / 3, 0.1, 2 ** 0.5, 1e-17, 123456.789):
            assert float(format_float(x)) == x


class TestVerifyCommand:
    def test_extremal_case_passes(self, tmp_path):
        code = run(["verify", "--case", "extremal-charge", "--d", 2,
                    "--h", 1.0, "--grid", 96, "--out", tmp_path])
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert rows[0].startswith("case,d,m,h")
        assert len(rows) == 3  # additive + multiplicative
        data = json.loads((tmp_path / "report.json").read_text())
        assert all(r["equality"] for r in data)

    def test_corrupted_case_fails_with_exit_1(self, tmp_path, capsys):
        code = run(["verify", "--case", "corrupted-extremal", "--d", 2,
                    "--h", 1.0, "--grid", 64, "--out", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL" in err
        # the report is still written, with the negative slack on record
        data = json.loads((tmp_path / "report.json").read_text())
        assert data[0]["slack"] < -1e-3

    def test_unknown_case_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["verify", "--case", "nope", "--out", out]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output

    def test_config_file_with_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("case: zero\nbogus_key: 1\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("limit", [
        "body: {kind: pball, p: 2}\n",
        "cone: {kind: halfspaces, normals: [[1, 0], [0, 1]]}\n",
    ])
    def test_non_box_window_case_exit_2(self, tmp_path, capsys, limit):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("case: extremal-charge\nd: 2\ngrid: 32\n" + limit)
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
        assert "box body + orthant cone" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "{kind: pball, p: 1}",
        "{kind: pball, p: 2}",
        "{kind: polytope, vertices: [[1, 0], [0.5, 0.8660254037844386], "
        "[-0.5, 0.8660254037844386], [-1, 0], [-0.5, -0.8660254037844386], "
        "[0.5, -0.8660254037844386]]}",
    ], ids=["l1-ball", "disc", "hexagon"])
    def test_nagy_extremal_general_body(self, tmp_path, body):
        # equality needs the exact mu(K∩C): a lattice count of the 1-ball
        # misses it
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"body: {body}\n")
        assert run(["verify", "--config", cfg, "--case", "nagy-extremal",
                    "--d", 2, "--h", 1, "--grid", 64, "--out", tmp_path]) == 0

    @pytest.mark.parametrize("grid", [64, 128])
    def test_nagy_extremal_wide_polytope(self, tmp_path, grid):
        # the body reaches 2h along the first axis: the grid must follow
        # K's bounding box, not h alone
        cfg = tmp_path / "c.yaml"
        cfg.write_text("body: {kind: polytope, "
                       "vertices: [[2, 0], [-2, 0], [0, 1], [0, -1]]}\n")
        assert run(["verify", "--config", cfg, "--case", "nagy-extremal",
                    "--d", 2, "--h", 1, "--grid", grid, "--out", tmp_path]) == 0
        header, row = (tmp_path / "report.csv").read_text().splitlines()[:2]
        assert row.split(",")[header.split(",").index("coverage")] == "1"

    def test_nagy_extremal_l1_ball_skewed_cone(self, tmp_path):
        # the diamond's edges pass through lattice centers, so a lattice
        # count reads mu(K∩C) low; the vertex walk gives it exactly
        cfg = tmp_path / "c.yaml"
        cfg.write_text("body: {kind: pball, p: 1}\n"
                       "cone: {kind: halfspaces, "
                       "normals: [[1, 0.3141], [0.2718, 1]]}\n")
        assert run(["verify", "--config", cfg, "--case", "nagy-extremal",
                    "--d", 2, "--h", 1, "--grid", 128, "--out", tmp_path]) == 0

    @pytest.mark.parametrize("spec", [
        "body: {kind: pball, q: 1}",
        "cone: {kind: orthant, mm: 1}",
        "cone: {kind: halfspaces}",
        "cone: {kind: halfspaces, normals: [[1, 0, 0]]}",
        "body: {kind: pball, p: abc}",
        "body: {kind: polytope}",
        "body: {kind: pball, p: 0.5}",
        "body: {kind: polytope, vertices: [[1, 0], [-1, 0]]}",
        "cone: {kind: halfspaces, normals: [[0, 0], [0, 1]]}",
        "cone: {kind: orthant, m: 1.5}",
        "cone: {kind: halfspaces, normals: [[1, 0], [-1, 0]]}",
        "cone: {kind: halfspaces, normals: [[1, 1], [-1, -1], [0, 1]]}",
    ], ids=["misspelt-body-key", "misspelt-cone-key", "no-normals",
            "normals-of-dimension-3", "p-not-a-number", "empty-polytope",
            "p-below-1", "flat-polytope", "zero-normal", "fractional-m",
            "cone-in-a-line", "cone-in-a-ray"])
    def test_invalid_body_or_cone_exit_2(self, tmp_path, capsys, spec):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"case: nagy-extremal\nd: 2\ngrid: 32\n{spec}\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("d, spec, cause", [
        (2, "vertices: [[1, 0], [-1, 0]]", "vertices do not span R^2: the polytope is flat"),
        (3, "vertices: [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]",
         "vertices do not span R^3: the polytope is flat"),
        (2, "facets: [[[1, 0], 1], [[-1, 0], 1]]",
         "facet normals do not span R^2: the polytope is unbounded"),
    ], ids=["segment", "square-in-3d", "slab"])
    def test_polytope_that_cannot_close_names_the_cause(self, tmp_path, capsys,
                                                         d, spec, cause):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"case: nagy-extremal\nd: {d}\nbody: {{kind: polytope, {spec}}}\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and cause in err

    @pytest.mark.parametrize("spec", [
        "case: mixed-m0\nm: 2\nbody: {kind: pball, p: 2}\n"
        "cone: {kind: halfspaces, normals: [[1, 0], [0, 1]]}",
        "case: mixed-m1\nm: 1",
        "case: mixed-m1\nbody: {kind: pball, p: 2}",
        "case: mixed-m0\ncone: {kind: orthant, m: 0}",
        "case: nagy-extremal\nm: 1\ncone: {kind: orthant, m: 1}",
    ], ids=["mixed-m0-all-three", "mixed-m", "mixed-body", "mixed-cone",
            "m-beside-cone"])
    def test_key_the_case_ignores_exit_2(self, tmp_path, capsys, spec):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"d: 2\ngrid: 32\n{spec}\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_density_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("case: zero\ndensity: {path: does-not-exist.csv}\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 2
        assert "density" in capsys.readouterr().err

    def test_config_file_drives_case(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("case: mixed-m1\nd: 2\nh: 1.0\ngrid: 48\n")
        assert run(["verify", "--config", cfg, "--out", tmp_path]) == 0

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("case: nope\n")
        code = run(["verify", "--config", cfg, "--case", "zero",
                    "--out", tmp_path])
        assert code == 0

    def test_report_csv_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["verify", "--case", "gaussian-charge", "--d", 2,
                        "--h", 0.5, "--grid", 64, "--out", out]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify", "--h", 0], ["verify", "--h", -1], ["verify", "--d", 0],
    ["verify", "--grid", 1], ["verify", "--m", 3, "--d", 2],
    ["verify", "--tol", -1],
    # radii whose h^(d+1) or h^-d is not a finite normal float
    ["verify", "--d", 2, "--h", 1e-300],
    ["verify", "--case", "nagy-extremal", "--d", 2, "--h", 1e-200],
    ["verify", "--d", 2, "--h", 1e120],
    ["verify", "--case", "mixed-m1", "--d", 2, "--h", "inf"],
    ["verify", "--h", "inf"], ["verify", "--d", 1, "--h", 1e-300],
    ["recover", "--deltas", "inf"],
    ["stechkin-curve", "--setting", "nope"],
    ["stechkin-curve", "--d", 0],
    ["stechkin-curve", "--setting", "mixed", "--d", 2, "--m", 3],
    ["recover", "--deltas", "0"], ["recover", "--grid", 1],
    # --deltas that is not a comma-separated list of numbers
    ["recover", "--deltas", "abc"], ["recover", "--deltas", "0.1,,1"],
    # deltas whose optimal h (1e-150, 1e-3) is below the typical-case grid's
    # cell spacing (0.0078 at the default grid 512)
    ["recover", "--deltas", "1e-300"], ["recover", "--deltas", "1e-6"],
    ["sharpness-search", "--m", 0], ["sharpness-search", "--h", -1],
    ["sharpness-search", "--d", 2, "--m", 3],
    ["sharpness-search", "--budget", -1],
], ids=lambda argv: " ".join(map(str, argv)))
def test_out_of_range_value_exit_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


# (argv, the smallest grid it takes): one grid below exits 2 before any
# computation, and the floor itself runs to a report
@pytest.mark.parametrize("argv, floor", [
    *((["verify", "--case", case, "--d", d], floor)
      for case, floor in (("extremal-charge", 5), ("corrupted-extremal", 5),
                          ("gaussian-charge", 9), ("zero", 5))
      for d in (1, 2, 3)),
    *((["stechkin-curve", "--d", d], 5) for d in (1, 2)),
    # delta 1 (h = 1 and 0.91) is resolved at grid 10; the default deltas
    # are not (test_recover_unresolved_delta_exit_2)
    *((["recover", "--d", d, "--deltas", "1.0"], 10) for d in (1, 2)),
], ids=lambda v: " ".join(map(str, v)) if isinstance(v, list) else str(v))
def test_grid_floor(tmp_path, capsys, argv, floor):
    assert run(argv + ["--grid", floor - 1, "--out", tmp_path]) == 2
    assert f"at least {floor}" in capsys.readouterr().err
    assert run(argv + ["--grid", floor, "--out", tmp_path]) in (0, 1)


# the smallest grid on which every delta of the case below passes the check
RESOLVING_GRID = {(1, 512): 4000, (1, 10): 40, (2, 10): 21}


@pytest.mark.parametrize("d, grid, delta, h, spacing", [
    (1, 512, "1e-06", "0.001", "0.00781"), (1, 10, "0.01", "0.1", "0.4"),
    (2, 10, "0.01", "0.196", "0.4"),
])
def test_recover_unresolved_delta_exit_2(tmp_path, capsys, d, grid, delta, h,
                                         spacing):
    # rejected before any output: the optimal h of delta is below the cell
    # spacing of the typical case's grid; the message names the smallest
    # grid on which every delta passes that check
    out = tmp_path / "out"
    argv = ["recover", "--d", d, "--grid", grid, "--out", out]
    if grid == 512:
        argv += ["--deltas", f"0.1,{delta},1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"delta {delta} has optimal h {h}," in err
    assert f"cell spacing {spacing};" in err and "larger --grid" in err
    assert f"at least {RESOLVING_GRID[d, grid]} (now {grid})" in err
    assert not (out / "recovery.csv").exists()


@pytest.mark.parametrize("d, need", [(1, 40), (2, 21)])
def test_recover_named_grid_is_the_smallest_that_runs(tmp_path, capsys, d, need):
    argv = ["recover", "--d", d, "--out", tmp_path]
    assert run(argv + ["--grid", need - 1]) == 2
    assert f"at least {need} (now {need - 1})" in capsys.readouterr().err
    assert run(argv + ["--grid", need]) in (0, 1)


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", 1], ["stechkin-curve", "--seed", 1],
    ["sharpness-search", "--grid", 8],
], ids=lambda argv: " ".join(map(str, argv)))
def test_option_nothing_reads_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", tmp_path])
    assert exc.value.code == 2


class TestOtherCommands:
    def test_stechkin_curve_outputs(self, tmp_path):
        assert run(["stechkin-curve", "--d", 1, "--out", tmp_path]) == 0
        for name in ("stechkin_curve.csv", "omega_curve.csv",
                     "attained_points.csv", "stechkin_curve.svg"):
            assert (tmp_path / name).exists()
        svg = (tmp_path / "stechkin_curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_stechkin_curve_mixed_setting(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("setting: mixed\nd: 2\nm: 1\nh_attained: [0.5, 1.0]\n")
        assert run(["stechkin-curve", "--config", cfg, "--out", tmp_path]) == 0

    def test_stechkin_curve_honours_grid(self, tmp_path):
        # the attained points are measured on the grid asked for, at d >= 2 too
        written = []
        for n in (32, 64):
            out = tmp_path / f"grid{n}"
            assert run(["stechkin-curve", "--d", 2, "--grid", n, "--out", out]) == 0
            written.append((out / "attained_points.csv").read_bytes())
        assert written[0] != written[1]

    def test_recover_demo(self, tmp_path):
        code = run(["recover", "--d", 1, "--deltas", "0.1,1.0",
                    "--grid", 256, "--out", tmp_path])
        assert code == 0
        rows = (tmp_path / "recovery.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        # the rows written when each delta built its own typical-case truth
        assert rows[1:] == RECOVER_ROWS[("0.1,1.0", 1)]
        summary = json.loads((tmp_path / "recovery_summary.json").read_text())
        for entry in summary:
            assert entry["err_worst"] == pytest.approx(entry["omega"],
                                                       abs=1e-3)
            assert entry["err_typical"] <= entry["omega"] + 1e-3
        assert (tmp_path / "estimate_dump.csv").exists()
        assert (tmp_path / "recovery.svg").exists()

    @pytest.mark.parametrize("deltas, d, grid, truths", [
        ("0.1,4.0,1.0", 1, 256, 2), ("0.1,4.0,1.0", 2, 64, 2),
        ("0.01,0.1,1.0", 1, 512, 1),
    ])
    def test_recover_builds_each_typical_truth_once(self, tmp_path, monkeypatch,
                                                    deltas, d, grid, truths):
        # the typical case's grid is fixed by max(2, 1.5 h): delta 4 has its
        # own grid, the others share one; the rows are the ones written when
        # each delta built its own truth
        from chargelab import cli

        built = []
        make = cli.make_density
        monkeypatch.setattr(cli, "make_density",
                            lambda *a, **k: built.append(1) or make(*a, **k))
        assert run(["recover", "--d", d, "--deltas", deltas, "--grid", grid,
                    "--out", tmp_path]) == 0
        assert len(built) == truths
        if (deltas, d) in RECOVER_ROWS:
            rows = (tmp_path / "recovery.csv").read_text().strip().splitlines()
            assert rows[1:] == RECOVER_ROWS[(deltas, d)]

    def test_sharpness_search_m1_control(self, tmp_path):
        code = run(["sharpness-search", "--d", 2, "--m", 1, "--h", 1.0,
                    "--budget", 6, "--seed", 0, "--out", tmp_path])
        assert code == 0
        summary = json.loads(
            (tmp_path / "sharpness_summary.json").read_text()
        )
        assert summary["exploratory"] is True
        assert summary["best_ratio"] <= 1 + 1e-6

    @pytest.mark.parametrize("h", [1e-120, 1e120])
    def test_sharpness_search_scale_free(self, tmp_path, h):
        ratios = []
        for scale in (1.0, h):
            out = tmp_path / str(scale)
            code = run(["sharpness-search", "--d", 2, "--m", 1, "--h", scale,
                        "--budget", 6, "--seed", 0, "--out", out])
            assert code == 0
            summary = json.loads((out / "sharpness_summary.json").read_text())
            ratios.append(summary["best_ratio"])
        assert np.isfinite(ratios[1]) and ratios[1] >= 0.999
        assert ratios[1] == ratios[0]

    @pytest.mark.parametrize("m", [1, 2])
    def test_sharpness_search_nan_ratio_fails(self, tmp_path, monkeypatch,
                                              capsys, m):
        from chargelab import cli
        from chargelab.inequalities import SharpnessResult

        nan = float("nan")
        monkeypatch.setattr(cli, "sharpness_search", lambda *a, **k:
                            SharpnessResult(nan, np.full(m, 0.5), [(0, nan)]))
        code = run(["sharpness-search", "--d", 2, "--m", m, "--budget", 1,
                    "--out", tmp_path])
        assert code == 1
        assert "ratio nan exceeds 1" in capsys.readouterr().err

    def test_plot_log_axes(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = tmp_path / "p.svg"
        render_plot(path, [
            {"label": "line", "x": [0.05, 1.0, 20.0], "y": [0.3, 1.0, 3.0],
             "kind": "line"},
            {"label": "pts", "x": [0.1, 1.0, 5.0], "y": [0.5, 0.0, 2.0],
             "kind": "points"},
        ])
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        x_labels = [t.text for t in root.iter(ns + "text")
                    if t.get("y") == "560" and t.get("text-anchor") == "middle"]
        assert x_labels == ["1e-2", "1e-1", "1e0", "1e1", "1e2"]
        # the point with y = 0 has no place on a log axis
        assert len(list(root.iter(ns + "circle"))) == 2

    def test_console_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "chargelab.cli", "verify", "--case",
             "zero", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
