"""Assembly and verification of the sharp inequalities.

Charge form: the additive bound sup|f| <= (dh/(d+1))*sup|grad f|_polar +
seminorm/(h^d mu), its multiplicative companion, and the Nagy-type L1
corollary.  Mixed form (box body, orthant cone): the same pair for the full
mixed derivative, with the extremal antiderivative constructions for m = 0
and the split-point construction for m = 1, plus an exploratory sharpness
search for m >= 2 where no proof is known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .charges import (
    Charge,
    _extremal_callbacks,
    extremal_density,
    grad_sup_polar,
    seminorm_K,
    seminorm_Kh,
)
from .geometry import ConvexBody, Cone, GeometryError
from .golden import golden_min
from .grids import GridField, GridSpec
from .report import InequalityReport
from .steklov import MixedParams, SteklovParams, deviation_sup, steklov_norm

__all__ = [
    "lk_additive_charge",
    "lk_multiplicative_charge",
    "nagy_inequality",
    "lk_additive_mixed",
    "lk_multiplicative_mixed",
    "mixed_deviation_sup",
    "extremal_mixed_m0",
    "extremal_mixed_m1",
    "split_point",
    "sharpness_search",
    "SharpnessResult",
    "default_h_max",
    "minimize_additive_bound",
    "box_corner_integral",
]


# -- charge-form inequalities ---------------------------------------------


def _density_sup(nu: Charge) -> float:
    return nu.density.sup_abs("value", cone=nu.cone).value


def lk_additive_charge(nu: Charge, K: ConvexBody, C: Cone, h: float,
                       tol: float = 1e-3) -> InequalityReport:
    """Additive bound on sup|density|, including the operator chain link."""
    p = SteklovParams.create(K, C, h)
    d = K.d
    lhs = _density_sup(nu)
    gsup = grad_sup_polar(nu.density, K, C)
    sem = seminorm_Kh(nu, K, h)
    dev = deviation_sup(nu, p)
    middle = dev.value + steklov_norm(p) * sem.value
    rep = InequalityReport(
        case="lk-additive-charge",
        d=d,
        m=C.m if C.kind == "orthant" else 0,
        h=h,
        grid=nu.density.grid.key(),
        lhs=lhs,
        rhs_terms={
            "deviation": d * h / (d + 1) * gsup,
            "norm": sem.value * steklov_norm(p),
        },
        middle=middle,
        tol=tol,
        coverage=dev.coverage,
        truncated=sem.truncated,
        argmax={"seminorm": sem.argmax, "deviation": dev.argmax},
        extras={"grad_sup_polar": gsup, "seminorm_Kh": sem.value},
    )
    rep.validate()
    return rep


def default_h_max(nu: Charge, K: ConvexBody) -> float:
    """Upper bound on useful window sizes: twice the gauge radius of the
    support box (every translate of that window covers the support)."""
    if nu.is_zero:
        return 1.0
    corners = np.array(
        list(itertools.product(*zip(nu._support_lo, nu._support_hi)))
    )
    r = float(np.max(K.gauge_many(corners)))
    return 2.0 * r + float(np.max(nu.density.grid.spacing))


def lk_multiplicative_charge(nu: Charge, K: ConvexBody, C: Cone,
                             h_max: float | None = None,
                             include_h=(), tol: float = 1e-3) -> InequalityReport:
    """Multiplicative bound through the h-sup seminorm."""
    d = K.d
    p1 = SteklovParams.create(K, C, 1.0)
    mu = p1.mu
    lhs = _density_sup(nu)
    gsup = grad_sup_polar(nu.density, K, C)
    semK = seminorm_K(nu, K, h_max or default_h_max(nu, K), include_h=include_h)
    rhs = (
        ((d + 1) / mu) ** (1.0 / (d + 1))
        * gsup ** (d / (d + 1))
        * semK.value ** (1.0 / (d + 1))
    )
    rep = InequalityReport(
        case="lk-multiplicative-charge",
        d=d,
        m=C.m if C.kind == "orthant" else 0,
        h=semK.h_opt,
        grid=nu.density.grid.key(),
        lhs=lhs,
        rhs_terms={"product": rhs},
        tol=tol,
        extras={
            "grad_sup_polar": gsup,
            "seminorm_K": semK.value,
            "seminorm_K_h_opt": semK.h_opt,
        },
    )
    rep.validate()
    return rep


def nagy_inequality(f: GridField, K: ConvexBody, C: Cone, h: float,
                    tol: float = 1e-3) -> InequalityReport:
    """Nagy-type bound: sup|f| via its gradient and its L1 norm."""
    p = SteklovParams.create(K, C, h)
    d = K.d
    lhs = f.sup_abs("value", cone=C).value
    gsup = grad_sup_polar(f, K, C)
    l1 = f.l1_norm()
    rep = InequalityReport(
        case="nagy",
        d=d,
        m=C.m if C.kind == "orthant" else 0,
        h=h,
        grid=f.grid.key(),
        lhs=lhs,
        rhs_terms={
            "deviation": d * h / (d + 1) * gsup,
            "norm": l1 * steklov_norm(p),
        },
        tol=tol,
        extras={"l1_norm": l1, "grad_sup_polar": gsup},
    )
    rep.validate()
    return rep


def minimize_additive_bound(gradsup: float, sem: float, mu: float, d: int,
                            iters: int = 200):
    """Golden-section minimum over h of (dh/(d+1))*gradsup + sem/(h^d mu).

    Returns (h_star, value); the closed-form minimizer is
    ((d+1) sem / (mu gradsup))^(1/(d+1)) and the minimum equals the
    multiplicative bound.
    """
    if gradsup <= 0 or sem <= 0:
        raise GeometryError("need positive gradient sup and seminorm")

    def bound(logh):
        h = math.exp(logh)
        return d * h / (d + 1) * gradsup + sem / (h**d * mu)

    h0 = ((d + 1) * sem / (mu * gradsup)) ** (1.0 / (d + 1))
    t, val = golden_min(bound, math.log(h0) - 5.0, math.log(h0) + 5.0, iters=iters)
    return math.exp(t), val


# -- mixed-derivative inequalities ----------------------------------------


def _mixed_sups(f: GridField, p: MixedParams):
    cone = p.cone
    body = p.body
    lhs = f.sup_abs("mixed", cone=cone).value
    gsup = f.sup_abs("mixed_grad", transform=body.polar_norm_many, cone=cone).value
    fsup = f.sup_abs("value", cone=cone).value
    return lhs, gsup, fsup


def mixed_deviation_sup(f: GridField, p: MixedParams) -> float:
    """Sup over the cone of |mixed derivative - composed-difference average|,
    evaluated from the analytic callbacks."""
    if f.mixed_fn is None or f.value_fn is None:
        raise GeometryError("mixed deviation needs value and mixed callbacks")
    from .steklov import _corner_terms

    terms = list(_corner_terms(p))
    scale = 1.0 / (2 ** (p.d - p.m) * p.h**p.d)

    def sbar(pts):
        acc = np.zeros(pts.shape[0])
        for off, sign in terms:
            acc += sign * f.value_fn(pts + off[None, :])
        return acc * scale

    best = 0.0
    for _, pts in f.grid.iter_center_chunks():
        dev = np.abs(f.mixed_fn(pts) - sbar(pts))
        best = max(best, float(dev.max()))
    for cand in [np.zeros(p.d)] + list(f.sup_candidates):
        cand = np.asarray(cand, dtype=float)
        if not p.cone.member_closure(cand):
            continue
        v = abs(float(f.mixed_fn(cand[None, :])[0]) - float(sbar(cand[None, :])[0]))
        best = max(best, v)
    return best


def lk_additive_mixed(f: GridField, p: MixedParams,
                      tol: float = 1e-3) -> InequalityReport:
    """Additive bound on the full mixed derivative, with the refined chain
    through the composed-difference operator."""
    lhs, gsup, fsup = _mixed_sups(f, p)
    opnorm = 2**p.m / p.h**p.d
    middle = mixed_deviation_sup(f, p) + opnorm * fsup
    rep = InequalityReport(
        case="lk-additive-mixed",
        d=p.d,
        m=p.m,
        h=p.h,
        grid=f.grid.key(),
        lhs=lhs,
        rhs_terms={
            "deviation": p.h * p.d / (p.d + 1) * gsup,
            "norm": opnorm * fsup,
        },
        middle=middle,
        tol=tol,
        extras={"f_sup": fsup, "mixed_grad_sup": gsup},
    )
    rep.validate()
    return rep


def lk_multiplicative_mixed(f: GridField, p: MixedParams,
                            tol: float = 1e-3) -> InequalityReport:
    lhs, gsup, fsup = _mixed_sups(f, p)
    rhs = (2**p.m * (p.d + 1) * fsup) ** (1.0 / (p.d + 1)) * gsup ** (
        p.d / (p.d + 1)
    )
    rep = InequalityReport(
        case="lk-multiplicative-mixed",
        d=p.d,
        m=p.m,
        h=p.h,
        grid=f.grid.key(),
        lhs=lhs,
        rhs_terms={"product": rhs},
        tol=tol,
        extras={"f_sup": fsup, "mixed_grad_sup": gsup},
    )
    rep.validate()
    return rep


# -- extremal antiderivatives (box gauge) ---------------------------------


def box_corner_integral(B: np.ndarray, h: float) -> np.ndarray:
    """Integral of (h - |u|_inf)_+ over the boxes [0, b_1] x ... x [0, b_d],
    closed form, vectorized over rows of B (nonnegative entries)."""
    B = np.clip(np.asarray(B, dtype=float), 0.0, h)
    if B.ndim == 1:
        B = B[None, :]
    cols = [B[:, k] for k in range(B.shape[1])]
    prod_b = cols[0].copy()
    for c in cols[1:]:
        prod_b *= c
    # integral of max(u) over the box, by layer-cake segments
    I = np.zeros(B.shape[0])
    prev = np.zeros(B.shape[0])
    pref = np.ones(B.shape[0])
    for j, sj in enumerate(_sorted_columns(cols)):
        q = len(cols) - j
        I += prod_b * (sj - prev) - pref * (sj ** (q + 1) - prev ** (q + 1)) / (
            q + 1
        )
        pref = pref * sj
        prev = sj
    return h * prod_b - I


def _sorted_columns(cols: list) -> list:
    """The columns sorted row by row, ascending (the columns of
    np.sort(B, axis=1)), by an odd-even transposition network of
    np.minimum / np.maximum passes.  Overwrites the arrays in `cols`."""
    cols = list(cols)
    for rnd in range(len(cols)):
        for i in range(rnd % 2, len(cols) - 1, 2):
            lo = np.minimum(cols[i], cols[i + 1])
            np.maximum(cols[i], cols[i + 1], out=cols[i + 1])
            cols[i] = lo
    return cols


def _signed_antiderivative(X: np.ndarray, h: float) -> np.ndarray:
    """Nested integral of (h - |u|_inf)_+ from 0 to each coordinate."""
    X = np.asarray(X, dtype=float)
    sign = np.sign(X[:, 0])
    for k in range(1, X.shape[1]):
        sign *= np.sign(X[:, k])
    return sign * box_corner_integral(np.abs(X), h)


def extremal_mixed_m0(h: float, d: int, grid: GridSpec) -> GridField:
    """Antiderivative of the extremal density; equality case for m = 0.

    sup|f| = h^(d+1)/(d+1) at (h, ..., h); the mixed derivative is the
    extremal density itself.
    """
    mixed_fn, mixed_grad_fn = _extremal_callbacks(
        ConvexBody.box(d), Cone.orthant(d, 0), h)
    fld = GridField.from_callback(
        grid,
        lambda pts: _signed_antiderivative(pts, h),
        mixed_fn=mixed_fn,
        mixed_grad_fn=mixed_grad_fn,
    )
    fld.sup_candidates.extend([np.zeros(d), np.full(d, h)])
    return fld


def split_point(h: float, d: int) -> float:
    """The level a in (0, h) splitting the integral of (h - |x|_inf) over
    hK ∩ (R_+ x R^(d-1)) into equal halves across the hyperplane x_1 = a."""
    if h <= 0 or d < 1:
        raise GeometryError("need h > 0 and d >= 1")

    def shell(r):
        # integral of (h - |x'|_inf) over |x'|_inf < r in dimension d-1
        if d == 1:
            return 0.0
        return (h - r) * (2 * r) ** (d - 1) + 2 ** (d - 1) * r**d / d

    def psi(t):
        base = (h - t) * (2 * t) ** (d - 1) if d > 1 else (h - t)
        return base + shell(h) - shell(t)

    total = h ** (d + 1) / (d + 1) * 2 ** (d - 1)

    def half_deficit(a):
        val, _ = quad(psi, 0.0, a, epsabs=1e-14, epsrel=1e-13, limit=200)
        return val - total / 2.0

    a = brentq(half_deficit, 1e-12 * h, h * (1 - 1e-12), xtol=1e-14, rtol=8.9e-16)
    return float(a)


def extremal_mixed_m1(h: float, d: int, grid: GridSpec,
                      a: float | None = None) -> GridField:
    """Split-point antiderivative; equality case for m = 1.

    sup|g| = h^(d+1)/(2(d+1)); the mixed derivative is the extremal density
    restricted to the cone.
    """
    if a is None:
        a = split_point(h, d)
    mixed_fn, mixed_grad_fn = _extremal_callbacks(
        ConvexBody.box(d), Cone.orthant(d, 1), h)

    def value_fn(pts):
        pts = np.asarray(pts, dtype=float)
        upper = pts.copy()
        upper[:, 0] = np.clip(upper[:, 0], 0.0, None)
        lower = upper.copy()
        lower[:, 0] = a
        return _signed_antiderivative(upper, h) - _signed_antiderivative(lower, h)

    fld = GridField.from_callback(
        grid, value_fn, mixed_fn=mixed_fn, mixed_grad_fn=mixed_grad_fn
    )
    start = np.zeros(d)
    start[0] = a
    fld.sup_candidates.extend([np.zeros(d), np.full(d, h), start])
    return fld


# -- exploratory sharpness search (m >= 2) --------------------------------


@dataclass
class SharpnessResult:
    best_ratio: float
    best_shifts: np.ndarray
    trajectory: list = field(default_factory=list)  # (iteration, ratio)
    exploratory: bool = True


def _shifted_sup(h: float, d: int, m: int, shifts: np.ndarray,
                 lattice: int = 33) -> float:
    """Sup of |g_s| where g_s integrates the extremal density from shifted
    lower limits on the first m axes; lattice scan + coordinate refinement."""

    subsets = list(itertools.product((0, 1), repeat=m))

    def g_many(X):
        X = np.asarray(X, dtype=float)
        acc = np.zeros(X.shape[0])
        for sub in subsets:
            Z = X.copy()
            for i, bit in enumerate(sub):
                if bit:
                    Z[:, i] = shifts[i]
            sign = -1.0 if sum(sub) % 2 else 1.0
            Z[:, :m] = np.clip(Z[:, :m], 0.0, None)
            acc += sign * _signed_antiderivative(Z, h)
        return acc

    axes = []
    for i in range(d):
        if i < m:
            axes.append(np.linspace(0.0, h, lattice))
        else:
            axes.append(np.linspace(-h, h, lattice))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([t.ravel() for t in mesh], axis=-1)
    vals = np.abs(g_many(pts))
    j = int(np.argmax(vals))
    best_x = pts[j].copy()
    # coordinate-wise golden ascent around the lattice argmax
    step = h / (lattice - 1)
    for _ in range(2):
        for i in range(d):
            lo = best_x[i] - 2 * step
            hi = best_x[i] + 2 * step
            if i < m:
                lo = max(lo, 0.0)

            def neg(t, _i=i):
                x = best_x.copy()
                x[_i] = t
                return -abs(float(g_many(x[None, :])[0]))

            t, _ = golden_min(neg, lo, hi, iters=40)
            best_x[i] = t
    return abs(float(g_many(best_x[None, :])[0]))


def sharpness_search(d: int, m: int, h: float = 1.0, budget: int = 40,
                     seed: int = 0) -> SharpnessResult:
    """Exploratory search for the best ratio LHS/RHS of the multiplicative
    mixed inequality over shifted-antiderivative candidates.

    Never claims sharpness: it reports the largest ratio observed.  The m=1
    instance is a control (the known optimum is the split point).
    """
    if m < 1:
        raise GeometryError("search applies to shifted constructions, m >= 1")
    rng = np.random.default_rng(seed)

    def ratio_of(shifts):
        sup_g = _shifted_sup(h, d, m, shifts)
        if sup_g <= 0:
            return 0.0
        return h / (2**m * (d + 1) * sup_g) ** (1.0 / (d + 1))

    best_s = np.full(m, 0.5 * h)
    best_r = ratio_of(best_s)
    traj = [(0, best_r)]
    for it in range(1, budget + 1):
        if it % 2:
            cand = rng.uniform(0.05 * h, 0.95 * h, size=m)
        else:
            # coordinate descent from the incumbent
            cand = best_s.copy()
            for i in range(m):
                def neg(t, _i=i):
                    s = cand.copy()
                    s[_i] = t
                    return -ratio_of(s)

                t, _ = golden_min(neg, 0.02 * h, 0.98 * h, iters=25)
                cand[i] = t
        r = ratio_of(cand)
        if r > best_r:
            best_r, best_s = r, cand
        traj.append((it, best_r))
    return SharpnessResult(best_r, best_s, traj)
