"""Command-line front end.

Subcommands:
  verify            run a named inequality case, write CSV/JSON reports
  stechkin-curve    sweep the best-approximation and modulus curves
  recover           recovery-from-noisy-data demo over a delta grid
  sharpness-search  exploratory search for m >= 2 sharpness evidence

Exit codes: 0 success, 1 check failure, 2 invalid config, 3 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .charges import (
    Charge,
    box_path,
    extremal_charge,
    extremal_density,
    grad_sup_polar,
    seminorm_K,
)
from .config import (
    _GRID_FLOORS,
    SCHEMAS,
    ConfigError,
    body_from_config,
    cone_from_config,
    load_config,
    validate,
)
from .families import make_density, random_separable_field, sum_fields
from .geometry import Cone, ConvexBody, GeometryError
from .grids import GridField, GridSpec
from .inequalities import (
    extremal_mixed_m0,
    extremal_mixed_m1,
    lk_additive_charge,
    lk_additive_mixed,
    lk_multiplicative_charge,
    lk_multiplicative_mixed,
    mixed_deviation_sup,
    nagy_inequality,
    sharpness_search,
)
from .report import CSV_COLUMNS, write_csv, write_json
from .steklov import (
    MixedParams,
    SteklovParams,
    deviation_sup,
    mixed_operator_norm,
    steklov_norm,
)
from .stechkin import (
    ProblemSetting,
    omega,
    optimal_h_for_delta,
    recover_derivative,
    recovery_error,
    sandwich_check,
    stechkin_error,
    optimal_h_for_N,
)
from .svgplot import render_plot

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3


def _fail(msgs: list, text: str) -> None:
    msgs.append(text)
    print(f"FAIL {text}", file=sys.stderr)


def _charge_grid(K: ConvexBody, m: int, h: float, n: int) -> GridSpec:
    """Cube grid of half-width 1.25 r, r = h * max(1, K's largest bounding
    radius), so that it covers hK with a margin; clipped to the orthant on
    the first m axes."""
    r = h * max(1.0, float(np.max(K.bounding_radii())))
    return GridSpec.for_cone(K.d, m, r, n, margin=0.25 * r)


def _zero_field(grid: GridSpec) -> GridField:
    return GridField(
        grid=grid,
        values=np.zeros(grid.shape),
        value_fn=lambda pts: np.zeros(pts.shape[0]),
        grad_fn=lambda pts: np.zeros_like(pts),
    )


def _mixed_extremal(d: int, m: int, h: float, n: int):
    """MixedParams and the equality case at step h on the n^d grid of
    half-width 1.5 h: extremal_mixed_m0 for m = 0, else extremal_mixed_m1."""
    build = extremal_mixed_m0 if m == 0 else extremal_mixed_m1
    return (MixedParams(d=d, m=m, h=h),
            build(h, d, GridSpec.for_cone(d, m, 1.5 * h, n)))


# -- verify ----------------------------------------------------------------

EQUALITY_CASES = {"extremal-charge", "nagy-extremal", "mixed-m0", "mixed-m1",
                  "zero"}
# cases whose additive bound needs steklov.deviation_sup, whose fractional
# windows (exact integrals over each window) exist only where
# charges.box_path holds
WINDOW_CASES = {"extremal-charge", "gaussian-charge", "zero",
                "corrupted-extremal"}


def _verify_reports(cfg: dict):
    case = cfg["case"]
    d, m, tol, n = cfg["d"], cfg["m"], cfg["tol"], cfg["grid"]
    hs = cfg["h"] if isinstance(cfg["h"], list) else [cfg["h"]]
    K = body_from_config(d, cfg["body"])
    C = cone_from_config(d, cfg["cone"]) if cfg["cone"] else Cone.orthant(d, m)
    if case in WINDOW_CASES and not box_path(K, C):
        raise ConfigError(f"verify case {case!r}: the deviation's fractional "
                          "windows need box body + orthant cone")
    reports = []
    for h in hs:
        h = float(h)
        if case == "extremal-charge":
            grid = _charge_grid(K, C.m, h, n)
            nu = extremal_charge(K, C, h, grid)
            reports.append(lk_additive_charge(nu, K, C, h, tol))
            reports.append(
                lk_multiplicative_charge(nu, K, C, h_max=2.5 * h,
                                         include_h=[h], tol=tol)
            )
        elif case == "gaussian-charge":
            grid = GridSpec.for_cone(d, C.m, 2.5, n)
            fld = make_density("gaussian", grid, width=0.8)
            nu = Charge(fld, C)
            reports.append(lk_additive_charge(nu, K, C, h, tol))
            reports.append(lk_multiplicative_charge(nu, K, C, tol=tol))
        elif case == "zero":
            grid = _charge_grid(K, C.m, h, n)
            nu = Charge(_zero_field(grid), C)
            reports.append(lk_additive_charge(nu, K, C, h, tol))
        elif case == "corrupted-extremal":
            grid = _charge_grid(K, C.m, h, n)
            honest = extremal_density(K, C, h, grid)
            corrupted = GridField(
                grid=grid,
                values=1.5 * honest.values,
                value_fn=lambda pts, _f=honest.value_fn: 1.5 * _f(pts),
                grad_fn=honest.grad_fn,  # understates the true gradient
                sup_candidates=list(honest.sup_candidates),
            )
            nu = Charge(corrupted, C)
            reports.append(lk_additive_charge(nu, K, C, h, tol))
        elif case == "nagy-extremal":
            grid = _charge_grid(K, C.m, h, n)
            fld = extremal_density(K, C, h, grid)
            reports.append(nagy_inequality(fld, K, C, h, tol))
        else:  # mixed-m0, mixed-m1
            p, f = _mixed_extremal(d, 0 if case == "mixed-m0" else 1, h, n)
            reports.append(lk_additive_mixed(f, p, tol))
            reports.append(lk_multiplicative_mixed(f, p, tol))
    return reports


def cmd_verify(cfg: dict, outdir: Path) -> int:
    reports = _verify_reports(cfg)
    write_csv(outdir / "report.csv", CSV_COLUMNS, [r.csv_row() for r in reports])
    write_json(outdir / "report.json", [r.to_dict() for r in reports])
    failures = []
    for rep in reports:
        tag = f"{rep.case} d={rep.d} m={rep.m} h={rep.h:g}"
        if not rep.holds:
            _fail(failures, f"{tag}: slack {rep.slack:.3e} < -tol")
        if not rep.chain_ordered():
            _fail(failures, f"{tag}: chain links out of order")
        if cfg["case"] in EQUALITY_CASES and not rep.equality:
            _fail(failures, f"{tag}: expected equality, slack {rep.slack:.3e}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# -- stechkin-curve --------------------------------------------------------


def cmd_stechkin_curve(cfg: dict, outdir: Path) -> int:
    d, m = cfg["d"], cfg["m"]
    if cfg["setting"] == "charge":
        setting = ProblemSetting.charge(ConvexBody.box(d), Cone.orthant(d, m))
    else:
        setting = ProblemSetting.mixed(d, m)

    Ns = np.geomspace(cfg["n_min"], cfg["n_max"], cfg["n_points"])
    write_csv(outdir / "stechkin_curve.csv", ["N", "E_N", "h_N"],
              [(N, stechkin_error(setting, N), optimal_h_for_N(setting, N))
               for N in Ns])

    deltas = np.geomspace(cfg["delta_min"], cfg["delta_max"], 16)
    rows, sandwich_ok = sandwich_check(setting, deltas)
    columns = ["delta", "omega", "inf_EN_plus_Ndelta", "rel_err"]
    write_csv(outdir / "omega_curve.csv", columns,
              [[r[k] for k in columns] for r in rows])

    # numerically attained points from extremal inputs
    n = cfg["grid"]
    if n is None:
        n = 64 if setting.kind == "mixed" else 512 if d == 1 else 128
    att_N, att_E = [], []
    for h in cfg["h_attained"]:
        h = float(h)
        if setting.kind == "charge":
            grid = _charge_grid(setting.K, m, h, n)
            nu = extremal_charge(setting.K, setting.C, h, grid)
            p = SteklovParams(K=setting.K, C=setting.C, h=h, mu=setting.mu)
            att_N.append(steklov_norm(p))
            att_E.append(deviation_sup(nu, p).value)
        else:
            p, f = _mixed_extremal(d, m, h, n)
            att_N.append(mixed_operator_norm(p))
            att_E.append(mixed_deviation_sup(f, p))
    write_csv(outdir / "attained_points.csv", ["N", "E_measured"],
              zip(att_N, att_E))

    render_plot(
        outdir / "stechkin_curve.svg",
        [
            {"label": "E_N closed form", "x": list(Ns),
             "y": [stechkin_error(setting, N) for N in Ns], "kind": "line"},
            {"label": "measured (extremal)", "x": att_N, "y": att_E,
             "kind": "points"},
        ],
        title="Best approximation error vs operator norm",
        xlabel="N", ylabel="E_N",
    )

    failures = []
    if not sandwich_ok:
        _fail(failures, "sandwich: inf_N{E_N + N delta} != omega(delta)")
    for N, E in zip(att_N, att_E):
        ref = stechkin_error(setting, N)
        if abs(E - ref) > 1e-3 * max(1.0, ref):
            _fail(failures, f"attained point at N={N:g}: {E:.6g} vs {ref:.6g}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# -- recover ---------------------------------------------------------------


def _typical_radius(h: float) -> float:
    """Half-width of the typical case's grid at window radius h: it holds
    the smooth truth, whose support does not depend on h, and a window of
    radius h."""
    return max(2.0, 1.5 * h)


def _typical_spacing(d: int, m: int, h: float, n: int) -> float:
    """The smallest cell spacing of the typical case's n^d grid at radius h."""
    return float(np.min(GridSpec.for_cone(d, m, _typical_radius(h), n).spacing))


def _resolving_grid(d: int, m: int, hs) -> int:
    """The smallest grid, at least recover's floor, on which no radius in hs
    is below _typical_spacing (cmd_recover's check).  The spacing falls as
    the grid grows, so doubling and then bisection find it."""
    def resolves(n):
        return not any(h < _typical_spacing(d, m, h, n) for h in hs)

    lo = hi = _GRID_FLOORS["recover"]
    while not resolves(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if resolves(mid) else (mid + 1, hi)
    return hi


def cmd_recover(cfg: dict, outdir: Path) -> int:
    d, m, n = cfg["d"], cfg["m"], cfg["grid"]
    K = ConvexBody.box(d)
    C = Cone.orthant(d, m)
    setting = ProblemSetting.charge(K, C)
    deltas = [float(delta) for delta in cfg["deltas"]]
    hs = [optimal_h_for_delta(setting, delta) for delta in deltas]
    for delta, h in zip(deltas, hs):
        sp = _typical_spacing(d, m, h, n)
        if h < sp:
            raise ConfigError(
                f"recover: delta {delta:g} has optimal h {h:.3g}, below the "
                f"typical-case grid's cell spacing {sp:.3g}; use a larger "
                f"--grid, at least {_resolving_grid(d, m, hs)} (now {n})")
    rng = np.random.default_rng(cfg["seed"])
    truths = {}  # the typical case's smooth truth per grid radius
    rows = []
    failures = []
    last_dump = None
    for delta, h in zip(deltas, hs):
        om = omega(setting, delta)
        # worst case: extremal truth, perturbed along the extremal direction
        # (the noisy data collapses to the zero charge)
        grid = _charge_grid(K, m, h, n)
        truth = extremal_density(K, C, h, grid)
        noisy = Charge(_zero_field(grid), C)
        res = recover_derivative(noisy, delta, setting)
        err_worst = recovery_error(truth, noisy, res)
        # typical case: scaled smooth truth plus filtered noise
        r = _typical_radius(h)
        if r not in truths:
            base = make_density("gaussian", GridSpec.for_cone(d, m, r, n),
                                width=0.8)
            truths[r] = base.scaled(0.8 / grad_sup_polar(base, K, C))
        truth2 = truths[r]
        grid2 = truth2.grid
        pert = random_separable_field(rng, grid2)
        pnorm = seminorm_K(
            Charge(pert, C), K, 2.0 * float(np.max(grid2.hi - grid2.lo))
        ).value
        pert = pert.scaled(0.9 * delta / pnorm)
        noisy2 = Charge(sum_fields([truth2, pert]), C)
        res2 = recover_derivative(noisy2, delta, setting)
        err_typ = recovery_error(truth2, noisy2, res2)
        rows.append((delta, h, om, err_worst, err_typ))
        if not (om - 1e-3 <= err_worst <= om + 1e-3):
            _fail(failures,
                  f"worst-case error {err_worst:.6g} not within 1e-3 of "
                  f"omega({delta:g}) = {om:.6g}")
        if err_typ > om + 1e-3:
            _fail(failures,
                  f"typical error {err_typ:.6g} exceeds omega({delta:g}) = {om:.6g}")
        last_dump = (grid, res)

    columns = ["delta", "h", "omega", "err_worst", "err_typical"]
    write_csv(outdir / "recovery.csv", columns, rows)

    if last_dump is not None:
        grid, res = last_dump
        write_csv(outdir / "estimate_dump.csv",
                  ["# i0"] + [f"i{k}" for k in range(1, grid.d)] + ["value"],
                  [(*idx, v) for idx, v
                   in zip(np.ndindex(*grid.shape), res.estimate.reshape(-1))])

    write_json(outdir / "recovery_summary.json",
               [dict(zip(columns, r)) for r in rows])

    render_plot(
        outdir / "recovery.svg",
        [
            {"label": "omega(delta)", "x": [r[0] for r in rows],
             "y": [r[2] for r in rows], "kind": "line"},
            {"label": "worst-case error", "x": [r[0] for r in rows],
             "y": [r[3] for r in rows], "kind": "points"},
            {"label": "typical error", "x": [r[0] for r in rows],
             "y": [r[4] for r in rows], "kind": "points"},
        ],
        title="Recovery error vs data accuracy",
        xlabel="delta", ylabel="sup error",
    )
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# -- sharpness-search ------------------------------------------------------


def cmd_sharpness_search(cfg: dict, outdir: Path) -> int:
    res = sharpness_search(cfg["d"], cfg["m"], cfg["h"], budget=cfg["budget"],
                           seed=cfg["seed"])
    write_csv(outdir / "sharpness_trajectory.csv", ["iteration", "best_ratio"],
              res.trajectory)
    write_json(outdir / "sharpness_summary.json", {
        "d": cfg["d"], "m": cfg["m"], "h": cfg["h"],
        "best_ratio": res.best_ratio,
        "best_shifts": [float(s) for s in res.best_shifts],
        "exploratory": True,
        "note": "numerical evidence only; no sharpness claim",
    })
    failures = []
    # written so that a NaN ratio fails both checks
    if not res.best_ratio <= 1 + 1e-6:
        _fail(failures, f"ratio {res.best_ratio} exceeds 1 (impossible)")
    if cfg["m"] == 1 and not res.best_ratio >= 0.999:
        _fail(failures, f"m=1 control ratio {res.best_ratio:.6g} < 0.999")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# -- entry point -----------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", type=str, default=None)
    sp.add_argument("--out", type=str, default="out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chargelab")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run a named inequality case")
    _add_common(sp)
    sp.add_argument("--case", type=str, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--h", type=float, action="append", default=None)
    sp.add_argument("--tol", type=float, default=None)

    sp = sub.add_parser("stechkin-curve", help="closed-form curves + attained points")
    _add_common(sp)
    sp.add_argument("--setting", type=str, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)

    sp = sub.add_parser("recover", help="recovery-from-noisy-data demo")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--deltas", type=str, default=None,
                    help="comma-separated delta grid")

    sp = sub.add_parser("sharpness-search", help="exploratory m >= 2 search")
    _add_common(sp)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--budget", type=int, default=None)
    # --seed and --grid only where the command's schema has the key
    for command, sp in sub.choices.items():
        for key in ("seed", "grid"):
            if key in SCHEMAS[command]:
                sp.add_argument(f"--{key}", type=int, default=None)
    return ap


_COMMANDS = {
    "verify": cmd_verify,
    "stechkin-curve": cmd_stechkin_curve,
    "recover": cmd_recover,
    "sharpness-search": cmd_sharpness_search,
}

_OVERRIDE_KEYS = ["case", "d", "m", "h", "tol", "seed", "grid", "setting",
                  "deltas", "budget"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        for key in _OVERRIDE_KEYS:
            val = getattr(args, key, None)
            if val is not None:
                if key == "deltas":
                    try:
                        val = [float(t) for t in val.split(",")]
                    except ValueError as e:
                        raise ConfigError(f"--deltas {val!r}: {e}") from e
                cfg[key] = val
        cfg = validate(args.command, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, outdir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (GeometryError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
