"""The benchmark's workloads and the checks on their outputs.

Each workload has `build(seed, workdir)`, which makes the inputs (part of
set-up), `op(inputs, index)`, one operation, and `check(inputs, output)`,
which returns a list of problems (empty when the output is right).  Every
operation of a workload is the same fixed bundle of whole verification
cases; the seed changes only values that leave its cost unchanged (h and
the CLI seeds).  The checks use closed forms and sums the benchmark makes
itself with NumPy, never stored copies of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# relative tolerances of the checks
EXACT = 1e-9        # the same sum or closed form, up to rounding
QUADRATURE = 5e-3   # midpoint quadrature against the continuum closed form
UNIT = 1e-12        # sup|density| = h and polar-gradient sup = 1


def _seeded_h(seed: int) -> float:
    """Window radius for a seed; grids scale with h, so cost does not."""
    return float(np.random.default_rng(seed).uniform(0.75, 1.25))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _centers(lo, hi, n):
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


# -- box-hsup ----------------------------------------------------------------

BOX_D, BOX_M, BOX_N = 3, 1, 64


def box_build(seed: int, workdir: Path):
    from chargelab import Cone, ConvexBody, GridSpec, extremal_density

    h = _seeded_h(seed)
    K, C = ConvexBody.box(BOX_D), Cone.orthant(BOX_D, BOX_M)
    grid = GridSpec.for_cone(BOX_D, BOX_M, h, BOX_N, margin=0.25 * h)
    return {"h": h, "K": K, "C": C, "grid": grid,
            "density": extremal_density(K, C, h, grid)}


def box_op(inp, index: int):
    from chargelab import Charge, lk_additive_charge, lk_multiplicative_charge

    h, K, C = inp["h"], inp["K"], inp["C"]
    nu = Charge(inp["density"], C)
    add = lk_additive_charge(nu, K, C, h)
    mul = lk_multiplicative_charge(nu, K, C, h_max=2.5 * h, include_h=[h])
    return {"additive": add, "multiplicative": mul}


def box_origin_window(values: np.ndarray, grid, h: float, m: int) -> float:
    """nu(hK∩C) for the box body: sum of the sampled values at centers
    strictly inside (0, h) on the first m axes and (-h, h) on the rest."""
    inside = np.ones(values.shape, dtype=bool)
    for axis in range(values.ndim):
        c = _centers(grid.lo[axis], grid.hi[axis], grid.shape[axis])
        ok = (c > 0) & (c < h) if axis < m else (c > -h) & (c < h)
        shape = [1] * values.ndim
        shape[axis] = -1
        inside &= ok.reshape(shape)
    cell = float(np.prod((grid.hi - grid.lo) / np.asarray(grid.shape)))
    return float(values[inside].sum()) * cell


def box_check(inp, out) -> list[str]:
    h, d, m = inp["h"], BOX_D, BOX_M
    add, mul = out["additive"], out["multiplicative"]
    errs = []
    for rep in (add, mul):
        if not (rep.holds and rep.equality):
            errs.append(f"{rep.case}: slack {rep.slack:.3e} is not an equality")
        if _rel(rep.lhs, h) > UNIT:
            errs.append(f"{rep.case}: sup|density| {rep.lhs!r} != h {h!r}")
        if abs(rep.extras["grad_sup_polar"] - 1.0) > UNIT:
            errs.append(f"{rep.case}: polar-gradient sup "
                        f"{rep.extras['grad_sup_polar']!r} != 1")
    sem = add.extras["seminorm_Kh"]
    origin = box_origin_window(inp["density"].values, inp["grid"], h, m)
    if _rel(sem, origin) > EXACT:
        errs.append(f"seminorm_Kh {sem!r} != origin window sum {origin!r}")
    closed = h ** (d + 1) * 2 ** (d - m) / (d + 1)
    if _rel(sem, closed) > QUADRATURE:
        errs.append(f"seminorm_Kh {sem!r} not within quadrature error of {closed!r}")
    semK = mul.extras["seminorm_K"]
    if _rel(semK, sem) > EXACT:
        errs.append(f"seminorm_K {semK!r} != seminorm_Kh at h {sem!r}")
    return errs


# -- mixed-lattice -------------------------------------------------------------

MIXED_D, MIXED_N = 3, 48


def mixed_build(seed: int, workdir: Path):
    from chargelab import GridSpec, MixedParams, extremal_mixed_m0, extremal_mixed_m1

    h = _seeded_h(seed)
    cases = []
    for m in (0, 1):
        grid = GridSpec.for_cone(MIXED_D, m, 1.5 * h, MIXED_N)
        make = extremal_mixed_m0 if m == 0 else extremal_mixed_m1
        cases.append((MixedParams(d=MIXED_D, m=m, h=h), make(h, MIXED_D, grid)))
    return {"h": h, "cases": cases}


def mixed_op(inp, index: int):
    from chargelab import lk_additive_mixed, lk_multiplicative_mixed

    return [(p.m, lk_additive_mixed(f, p), lk_multiplicative_mixed(f, p))
            for p, f in inp["cases"]]


def mixed_check(inp, out) -> list[str]:
    h, d = inp["h"], MIXED_D
    errs = []
    if [m for m, _, _ in out] != [0, 1]:
        return ["mixed-lattice: expected the m=0 and m=1 cases"]
    for m, add, mul in out:
        fsup = h ** (d + 1) / (d + 1) / (2 if m == 1 else 1)
        for rep in (add, mul):
            tag = f"{rep.case} m={m}"
            if not (rep.holds and rep.equality):
                errs.append(f"{tag}: slack {rep.slack:.3e} is not an equality")
            if _rel(rep.lhs, h) > UNIT:
                errs.append(f"{tag}: sup|mixed derivative| {rep.lhs!r} != h {h!r}")
            if _rel(rep.extras["f_sup"], fsup) > EXACT:
                errs.append(f"{tag}: sup|f| {rep.extras['f_sup']!r} != {fsup!r}")
            if abs(rep.extras["mixed_grad_sup"] - 1.0) > UNIT:
                errs.append(f"{tag}: mixed-gradient sup "
                            f"{rep.extras['mixed_grad_sup']!r} != 1")
    return errs


# -- general-body ----------------------------------------------------------------

GENERAL_N, CAKE_N = 24, 128
HEX_VERTICES = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def own_gauge(body: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The benchmark's own gauges: Euclidean norm, and the regular hexagon
    with circumradius 1 (facet normals at pi/6 + k pi/3, inradius sqrt(3)/2)."""
    if body == "ball":
        return np.hypot(x, y)
    angles = math.pi / 6 + np.arange(6) * math.pi / 3
    proj = np.multiply.outer(x, np.cos(angles)) + np.multiply.outer(y, np.sin(angles))
    return proj.max(axis=-1) / (math.sqrt(3) / 2)


GENERAL_MU = {"ball": math.pi, "hexagon": 1.5 * math.sqrt(3)}


def general_build(seed: int, workdir: Path):
    from chargelab import Cone, ConvexBody, GridSpec, extremal_density

    h = _seeded_h(seed)
    C = Cone.orthant(2, 0)
    bodies = {"ball": ConvexBody.pball(2, 2.0),
              "hexagon": ConvexBody.polytope(2, vertices=HEX_VERTICES)}
    grid = GridSpec.for_cone(2, 0, h, GENERAL_N, margin=0.25 * h)
    fields = {name: extremal_density(K, C, h, grid) for name, K in bodies.items()}
    return {"h": h, "C": C, "grid": grid, "bodies": bodies, "fields": fields,
            "ball3": ConvexBody.pball(3, 2.0), "C3": Cone.orthant(3, 0)}


def general_op(inp, index: int):
    from chargelab import Charge, layer_cake_integral, seminorm_Kh

    h, C = inp["h"], inp["C"]
    out = {name: seminorm_Kh(Charge(inp["fields"][name], C), K, h).value
           for name, K in inp["bodies"].items()}
    out["layer_cake"] = layer_cake_integral(inp["ball3"], inp["C3"], h, n=CAKE_N)
    return out


def general_origin_window(body: str, grid, h: float) -> float:
    """Midpoint sum of (h - |x|)_+ over the centers with |x| < h."""
    x = _centers(grid.lo[0], grid.hi[0], grid.shape[0])[:, None]
    y = _centers(grid.lo[1], grid.hi[1], grid.shape[1])[None, :]
    g = own_gauge(body, x, y)
    cell = float(np.prod((grid.hi - grid.lo) / np.asarray(grid.shape)))
    return float(np.where(g < h, h - g, 0.0).sum()) * cell


def general_check(inp, out) -> list[str]:
    h, d = inp["h"], 2
    errs = []
    for name, mu in GENERAL_MU.items():
        sem = out[name]
        origin = general_origin_window(name, inp["grid"], h)
        if _rel(sem, origin) > EXACT:
            errs.append(f"{name}: seminorm_Kh {sem!r} != origin window sum {origin!r}")
        closed = h ** (d + 1) * mu / (d + 1)
        if _rel(sem, closed) > QUADRATURE:
            errs.append(f"{name}: seminorm_Kh {sem!r} not within quadrature "
                        f"error of {closed!r}")
    cake = 3 * h ** 4 / 4 * 4 * math.pi / 3
    if _rel(out["layer_cake"], cake) > QUADRATURE:
        errs.append(f"layer cake {out['layer_cake']!r} not within tolerance of {cake!r}")
    return errs


# -- cli-session -----------------------------------------------------------------

SHARPNESS_BUDGET = 2
STECHKIN_DEFAULTS = {"n_min": 0.05, "n_max": 20.0, "n_points": 33,
                     "delta_min": 0.01, "delta_max": 10.0,
                     "h_attained": [0.5, 1.0, 2.0]}
RECOVER_DELTAS = [0.01, 0.1, 1.0]


def cli_build(seed: int, workdir: Path):
    h = round(_seeded_h(seed), 6)
    out = workdir / f"cli-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = {
        "verify-extremal": ["verify", "--case", "extremal-charge", "--d", "2",
                            "--h", repr(h)],
        "verify-mixed": ["verify", "--case", "mixed-m1", "--d", "2", "--h", repr(h)],
        "stechkin-curve": ["stechkin-curve"],
        "recover": ["recover", "--seed", str(seed)],
        "sharpness-search": ["sharpness-search", "--d", "2", "--m", "1",
                             "--budget", str(SHARPNESS_BUDGET), "--seed", str(seed)],
    }
    return {"h": h, "root": out, "commands": commands}


def cli_op(inp, index: int):
    from chargelab.cli import main

    opdir = inp["root"] / f"op{index}"
    codes = {}
    for name, argv in inp["commands"].items():
        codes[name] = main(argv + ["--out", str(opdir / name)])
    return {"dir": opdir, "codes": codes}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_svg(path: Path, errs: list) -> None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as e:
        errs.append(f"{path.name}: {e}")
        return
    if not root.tag.endswith("svg"):
        errs.append(f"{path.name}: root element {root.tag!r} is not svg")


def _check_reports(path: Path, h: float, case: str, errs: list) -> list[dict]:
    rows = _read_csv(path / "report.csv")
    reports = json.loads((path / "report.json").read_text())
    if len(rows) != 2 or len(reports) != 2:
        errs.append(f"{case}: expected 2 report rows, got {len(rows)}/{len(reports)}")
        return []
    for row, rep in zip(rows, reports):
        lhs, rhs, slack = float(row["lhs"]), float(row["rhs"]), float(row["slack"])
        if _rel(lhs, h) > UNIT or _rel(rep["lhs"], h) > UNIT:
            errs.append(f"{case} {row['case']}: lhs {lhs!r} != h {h!r}")
        if abs(rhs - lhs - slack) > 1e-12 * max(1.0, rhs):
            errs.append(f"{case} {row['case']}: slack {slack!r} != rhs - lhs")
        if row["equality"] != "1" or not rep["equality"] or abs(rhs - lhs) > rep["tol"]:
            errs.append(f"{case} {row['case']}: not an equality (slack {slack!r})")
        if float(row["rhs"]) != rep["rhs"]:
            errs.append(f"{case} {row['case']}: CSV rhs {rhs!r} != JSON {rep['rhs']!r}")
    return reports


def cli_check(inp, out) -> list[str]:
    errs = []
    for name, code in out["codes"].items():
        if code != 0:
            errs.append(f"{name}: exit code {code}")
    base, h = out["dir"], inp["h"]
    try:
        _cli_check_files(base, h, errs)
    except (OSError, KeyError, ValueError, TypeError) as e:
        errs.append(f"reading CLI output: {type(e).__name__}: {e}")
    return errs


def charge_closed_forms(d: int, m: int):
    """Closed forms of the box/orthant charge setting, mu = 2^(d-m)."""
    mu = 2.0 ** (d - m)
    return {
        "E_N": lambda N: d / (d + 1) * (1.0 / (N * mu)) ** (1.0 / d),
        "h_N": lambda N: (1.0 / (N * mu)) ** (1.0 / d),
        "omega": lambda delta: ((d + 1) * delta / mu) ** (1.0 / (d + 1)),
        "N_of_h": lambda h: 1.0 / (h ** d * mu),
    }


def _cli_check_files(base: Path, h: float, errs: list) -> None:
    # verify extremal-charge, d=2, m=0: sup = h, gradient sup 1, equality
    reps = _check_reports(base / "verify-extremal", h, "verify extremal-charge", errs)
    for rep in reps:
        if abs(rep["grad_sup_polar"] - 1.0) > UNIT:
            errs.append(f"verify extremal-charge: gradient sup {rep['grad_sup_polar']!r}")
    if reps:
        closed = h ** 3 * 4 / 3
        if _rel(reps[0]["seminorm_Kh"], closed) > QUADRATURE:
            errs.append(f"verify extremal-charge: seminorm_Kh {reps[0]['seminorm_Kh']!r}"
                        f" vs {closed!r}")
    # verify mixed-m1, d=2: sup|g| = h^3 / 6, mixed-gradient sup 1
    for rep in _check_reports(base / "verify-mixed", h, "verify mixed-m1", errs):
        if _rel(rep["f_sup"], h ** 3 / 6) > EXACT:
            errs.append(f"verify mixed-m1: sup|f| {rep['f_sup']!r} != {h ** 3 / 6!r}")
        if abs(rep["mixed_grad_sup"] - 1.0) > UNIT:
            errs.append(f"verify mixed-m1: mixed-gradient sup {rep['mixed_grad_sup']!r}")

    # stechkin-curve, charge setting d=1, m=0
    cf = charge_closed_forms(1, 0)
    sd = base / "stechkin-curve"
    rows = _read_csv(sd / "stechkin_curve.csv")
    S = STECHKIN_DEFAULTS
    Ns = np.geomspace(S["n_min"], S["n_max"], S["n_points"])
    if len(rows) != len(Ns):
        errs.append(f"stechkin_curve.csv: {len(rows)} rows, expected {len(Ns)}")
    for row, N in zip(rows, Ns):
        if _rel(float(row["N"]), N) > EXACT:
            errs.append(f"stechkin_curve.csv: N {row['N']} != {N!r}")
        if _rel(float(row["E_N"]), cf["E_N"](N)) > EXACT:
            errs.append(f"stechkin_curve.csv: E_N {row['E_N']} != {cf['E_N'](N)!r}")
        if _rel(float(row["h_N"]), cf["h_N"](N)) > EXACT:
            errs.append(f"stechkin_curve.csv: h_N {row['h_N']} != {cf['h_N'](N)!r}")
    rows = _read_csv(sd / "omega_curve.csv")
    deltas = np.geomspace(S["delta_min"], S["delta_max"], 16)
    if len(rows) != len(deltas):
        errs.append(f"omega_curve.csv: {len(rows)} rows, expected {len(deltas)}")
    for row, delta in zip(rows, deltas):
        om = cf["omega"](delta)
        if _rel(float(row["delta"]), delta) > EXACT or _rel(float(row["omega"]), om) > EXACT:
            errs.append(f"omega_curve.csv: omega({row['delta']}) {row['omega']} != {om!r}")
        if _rel(float(row["inf_EN_plus_Ndelta"]), om) > 1e-6:
            errs.append(f"omega_curve.csv: inf_N(E_N + N delta) "
                        f"{row['inf_EN_plus_Ndelta']} != omega {om!r}")
    rows = _read_csv(sd / "attained_points.csv")
    hs = S["h_attained"]
    if len(rows) != len(hs):
        errs.append(f"attained_points.csv: {len(rows)} rows, expected {len(hs)}")
    for row, ha in zip(rows, hs):
        N = cf["N_of_h"](ha)
        if _rel(float(row["N"]), N) > EXACT:
            errs.append(f"attained_points.csv: N {row['N']} != {N!r}")
        if abs(float(row["E_measured"]) - cf["E_N"](N)) > 1e-3 * max(1.0, cf["E_N"](N)):
            errs.append(f"attained_points.csv: E {row['E_measured']} vs E_N "
                        f"{cf['E_N'](N)!r}")
    _check_svg(sd / "stechkin_curve.svg", errs)

    # recover, charge setting d=1, m=0
    rd = base / "recover"
    rows = _read_csv(rd / "recovery.csv")
    summary = json.loads((rd / "recovery_summary.json").read_text())
    if len(rows) != len(RECOVER_DELTAS) or len(summary) != len(RECOVER_DELTAS):
        errs.append(f"recovery.csv: {len(rows)} rows, expected {len(RECOVER_DELTAS)}")
    for row, js, delta in zip(rows, summary, RECOVER_DELTAS):
        om = cf["omega"](delta)
        vals = {k: float(v) for k, v in row.items()}
        if _rel(vals["delta"], delta) > EXACT or _rel(vals["omega"], om) > EXACT:
            errs.append(f"recovery.csv: omega({row['delta']}) {row['omega']} != {om!r}")
        if _rel(vals["h"], om) > EXACT:  # the optimal radius equals omega when d=1, m=0
            errs.append(f"recovery.csv: h {row['h']} != {om!r}")
        if abs(vals["err_worst"] - om) > 1e-3:
            errs.append(f"recovery.csv: worst-case error {row['err_worst']} "
                        f"not within 1e-3 of omega {om!r}")
        if vals["err_typical"] > om + 1e-3:
            errs.append(f"recovery.csv: typical error {row['err_typical']} "
                        f"exceeds omega {om!r} + 1e-3")
        if any(js[k] != v for k, v in vals.items()):
            errs.append(f"recovery_summary.json disagrees with recovery.csv at "
                        f"delta {row['delta']}")
    _check_svg(rd / "recovery.svg", errs)

    # sharpness-search, d=2, m=1 control
    hd = base / "sharpness-search"
    summary = json.loads((hd / "sharpness_summary.json").read_text())
    rows = _read_csv(hd / "sharpness_trajectory.csv")
    ratio = summary["best_ratio"]
    if ratio > 1 + 1e-6:
        errs.append(f"sharpness ratio {ratio!r} exceeds 1 + 1e-6")
    if ratio < 0.999:
        errs.append(f"sharpness m=1 control ratio {ratio!r} < 0.999")
    traj = [float(r["best_ratio"]) for r in rows]
    if len(traj) != SHARPNESS_BUDGET + 1 or traj[-1] != ratio \
            or any(b < a for a, b in zip(traj, traj[1:])):
        errs.append("sharpness_trajectory.csv is not the nondecreasing path to best_ratio")


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    op: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("box-hsup", box_build, box_op, box_check),
    Workload("mixed-lattice", mixed_build, mixed_op, mixed_check),
    Workload("general-body", general_build, general_op, general_check),
    Workload("cli-session", cli_build, cli_op, cli_check),
)}
