"""Assembly and verification of the sharp inequalities.

Charge form: the additive bound sup|f| <= (dh/(d+1))*sup|grad f|_polar +
seminorm/(h^d mu), its multiplicative companion, and the Nagy-type L1
corollary.  Mixed form (box body, orthant cone): the same pair for the full
mixed derivative, with data sup|f| and mu = mu(K∩C)/2^d = 2^-m, since the
charge of a window under f is a composed difference of 2^d values of f.
One private builder writes each of the two inequalities for both forms.
The module also holds the extremal antiderivative constructions for m = 0
and the split-point construction for m = 1, and an exploratory sharpness
search for m >= 2 where no proof is known.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charges import (
    Charge,
    _extremal_callbacks,
    grad_sup_polar,
    seminorm_K,
    seminorm_Kh,
)
from .geometry import ConvexBody, Cone, GeometryError, _check_radius, volume_body_cone
from .golden import golden_min
from .grids import GridField, GridSpec
from .report import InequalityReport
from .steklov import (
    MixedParams,
    SteklovParams,
    deviation_sup,
    mixed_operator_apply,
    mixed_operator_norm,
    steklov_norm,
)

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
    "box_corner_integral",
]


# -- charge-form inequalities ---------------------------------------------


def _density_sup(nu: Charge) -> float:
    return nu.memo("density_sup", (), lambda: nu.density.sup_abs(
        "value", cone=nu.cone).value)


def _grad_sup(nu: Charge, K: ConvexBody, C: Cone) -> float:
    return nu.memo("grad_sup_polar", (K, C),
                   lambda: grad_sup_polar(nu.density, K, C))


def _additive_report(case: str, d: int, m: int, h: float, grid: str,
                     lhs: float, gsup: float, data: float, N: float, tol: float,
                     dev: float | None = None, **fields) -> InequalityReport:
    """lhs <= dh/(d+1) gsup + N data, N the operator norm 1/(h^d mu); when
    the deviation dev is given, the chain link dev + N data between them."""
    rep = InequalityReport(
        case, d, m, h, grid, lhs, tol=tol, **fields,
        rhs_terms={"deviation": d * h / (d + 1) * gsup, "norm": data * N},
        middle=None if dev is None else dev + N * data)
    rep.validate()
    return rep


def _product(d: int, mu: float, gsup: float, data: float, joint: bool) -> float:
    """((d+1)/mu)^(1/(d+1)) gsup^(d/(d+1)) data^(1/(d+1)), the least additive
    bound over h; joint powers (d+1)/mu * data in one step."""
    e = 1.0 / (d + 1)
    return (((d + 1) / mu * data) ** e * gsup ** (d / (d + 1)) if joint else
            ((d + 1) / mu) ** e * gsup ** (d / (d + 1)) * data ** e)


def _multiplicative_report(case: str, d: int, m: int, h: float, grid: str,
                           lhs: float, gsup: float, data: float, mu: float,
                           tol: float, extras: dict,
                           joint: bool = False) -> InequalityReport:
    """lhs <= _product(d, mu, gsup, data, joint)."""
    rep = InequalityReport(case, d, m, h, grid, lhs,
                           {"product": _product(d, mu, gsup, data, joint)},
                           tol=tol, extras=extras)
    rep.validate()
    return rep


def lk_additive_charge(nu: Charge, K: ConvexBody, C: Cone, h: float,
                       tol: float = 1e-3) -> InequalityReport:
    """Additive bound on sup|density|, including the operator chain link.

    sup|density|, the polar-gradient sup and seminorm_Kh at h are read
    through the charge's memo (Charge.memo), so a multiplicative report on
    the same charge, K and C (with h in include_h) does not sweep them
    again."""
    p = SteklovParams.create(K, C, h)
    lhs = _density_sup(nu)
    gsup = _grad_sup(nu, K, C)
    sem = seminorm_Kh(nu, K, h)
    dev = deviation_sup(nu, p)
    return _additive_report(
        "lk-additive-charge", K.d, C.m, h, nu.density.grid.key(), lhs, gsup,
        sem.value, steklov_norm(p), tol, dev.value,
        coverage=dev.coverage, truncated=sem.truncated,
        argmax={"seminorm": sem.argmax, "deviation": dev.argmax},
        extras={"grad_sup_polar": gsup, "seminorm_Kh": sem.value})


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
    """Multiplicative bound through the h-sup seminorm.

    sup|density| and the polar-gradient sup are read through the charge's
    memo, as is every seminorm_Kh sweep of seminorm_K: after
    lk_additive_charge at h on the same charge, K and C, include_h=[h]
    finds its sweep at h there."""
    lhs = _density_sup(nu)
    gsup = _grad_sup(nu, K, C)
    semK = seminorm_K(nu, K, default_h_max(nu, K) if h_max is None else h_max,
                      include_h=include_h)
    return _multiplicative_report(
        "lk-multiplicative-charge", K.d, C.m, semK.h_opt, nu.density.grid.key(),
        lhs, gsup, semK.value, volume_body_cone(K, C).value, tol,
        extras={"grad_sup_polar": gsup, "seminorm_K": semK.value,
                "seminorm_K_h_opt": semK.h_opt, "seminorm_K_gap": semK.gap})


def nagy_inequality(f: GridField, K: ConvexBody, C: Cone, h: float,
                    tol: float = 1e-3) -> InequalityReport:
    """Nagy-type bound: sup|f| via its gradient and its L1 norm."""
    p = SteklovParams.create(K, C, h)
    lhs = f.sup_abs("value", cone=C).value
    gsup = grad_sup_polar(f, K, C)
    l1 = f.l1_norm()
    return _additive_report(
        "nagy", K.d, C.m, h, f.grid.key(), lhs, gsup, l1, steklov_norm(p),
        tol, extras={"l1_norm": l1, "grad_sup_polar": gsup})


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
    evaluated from the analytic callbacks at every grid center and at the
    field's deviation candidates (GridField.deviation_candidates: the origin
    and the registered points)."""
    if f.mixed_fn is None or f.value_fn is None:
        raise GeometryError("mixed deviation needs value and mixed callbacks")
    best = 0.0
    for _, pts in f.grid.iter_center_chunks():
        dev = np.abs(f.mixed_fn(pts) - mixed_operator_apply(f, p, pts))
        best = max(best, float(dev.max()))
    for cand in f.deviation_candidates(p.cone):
        X = cand[None, :]
        v = abs(float(f.mixed_fn(X)[0]) - float(mixed_operator_apply(f, p, X)[0]))
        best = max(best, v)
    return best


def lk_additive_mixed(f: GridField, p: MixedParams,
                      tol: float = 1e-3) -> InequalityReport:
    """Additive bound on the full mixed derivative, with the refined chain
    through the composed-difference operator."""
    lhs, gsup, fsup = _mixed_sups(f, p)
    return _additive_report(
        "lk-additive-mixed", p.d, p.m, p.h, f.grid.key(), lhs, gsup, fsup,
        mixed_operator_norm(p), tol, mixed_deviation_sup(f, p),
        extras={"f_sup": fsup, "mixed_grad_sup": gsup})


def lk_multiplicative_mixed(f: GridField, p: MixedParams,
                            tol: float = 1e-3) -> InequalityReport:
    lhs, gsup, fsup = _mixed_sups(f, p)
    return _multiplicative_report(
        "lk-multiplicative-mixed", p.d, p.m, p.h, f.grid.key(), lhs, gsup,
        fsup, 2.0 ** -p.m, tol, extras={"f_sup": fsup, "mixed_grad_sup": gsup},
        joint=True)


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
    # integral of max(u) over the box, by layer-cake segments between the
    # sorted sides: I += prod_b (s_j - prev) - pref (s_j^(q+1) - prev^(q+1))
    # / (q+1), in place in column buffers (prev is read once, then powered)
    I, seg, top = np.zeros_like(prod_b), np.empty_like(prod_b), np.empty_like(prod_b)
    prev, pref = 0.0, 1.0
    for j, sj in enumerate(_sorted_columns(cols)):
        q = len(cols) - j
        np.subtract(sj, prev, out=seg)
        seg *= prod_b
        np.copyto(top, sj)
        top **= q + 1
        prev **= q + 1
        top -= prev
        top *= pref
        top /= q + 1
        seg -= top
        I += seg
        pref *= sj
        prev = sj
    prod_b *= h
    prod_b -= I
    return prod_b


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


def _shifted_antiderivative(X: np.ndarray, h: float, shifts) -> np.ndarray:
    """Nested integral of (h - |u|_inf)_+ over the box between the lower
    limits and the rows of X: from shifts[i] to max(x_i, 0) on the first
    m = len(shifts) axes, from 0 to x_i on the others.  An alternating sum
    over the 2^m corners z of that box of the integral from 0 to |z|
    (box_corner_integral), times the signs of the last d - m coordinates
    (the first m coordinates of every corner are >= 0)."""
    X = np.asarray(X, dtype=float)
    m = len(shifts)
    acc = None
    for sub in itertools.product((0, 1), repeat=m):
        Z = np.array(X, order="F")  # contiguous columns
        for i, bit in enumerate(sub):
            if bit:
                Z[:, i] = shifts[i]
        np.clip(Z[:, :m], 0.0, None, out=Z[:, :m])
        term = box_corner_integral(np.abs(Z, out=Z), h)
        if acc is None:
            acc = term
        elif sum(sub) % 2:
            acc -= term
        else:
            acc += term
    for k in range(m, X.shape[1]):
        acc *= np.sign(X[:, k])
    return acc


def _shifted_field(h: float, d: int, grid: GridSpec, shifts: tuple) -> GridField:
    """_shifted_antiderivative on the grid, with the extremal density of the
    cone R^m_+ x R^(d-m), m = len(shifts), as its mixed derivative, and the
    sup candidates 0, (h, ..., h) and, for m > 0, (shifts, 0, ..., 0)."""
    m = len(shifts)
    mixed_fn, mixed_grad_fn = _extremal_callbacks(
        ConvexBody.box(d), Cone.orthant(d, m), h)
    fld = GridField.from_callback(
        grid, lambda pts: _shifted_antiderivative(pts, h, shifts),
        mixed_fn=mixed_fn, mixed_grad_fn=mixed_grad_fn,
    )
    fld.sup_candidates.extend([np.zeros(d), np.full(d, h)])
    if m:
        fld.sup_candidates.append(np.r_[shifts, np.zeros(d - m)])
    return fld


def extremal_mixed_m0(h: float, d: int, grid: GridSpec) -> GridField:
    """Antiderivative of the extremal density; equality case for m = 0.

    sup|f| = h^(d+1)/(d+1) at (h, ..., h); the mixed derivative is the
    extremal density itself.
    """
    return _shifted_field(h, d, grid, ())


def split_point(h: float, d: int) -> float:
    """The level a in (0, h) splitting the integral of (h - |x|_inf) over
    hK ∩ (R_+ x R^(d-1)) into equal halves across the hyperplane x_1 = a.

    The slice of that integral at x_1 = t is 2^(d-1) (h^d - t^d) / d, so
    a = h x_d with x_d the root in (0, 1) of F(x) = (d+1) x - x^(d+1) - d/2.
    F rises (F' = (d+1)(1 - x^d) > 0) from -d/2 to d/2 and is concave, so
    Newton's method from 0 climbs to the root.  One more step in exact
    rational arithmetic, rounded once at scale h, makes a correctly rounded.
    h must pass geometry._check_radius (positive and finite).
    """
    _check_radius(h)
    if d < 1:
        raise GeometryError("need d >= 1")
    x = 0.0
    while True:
        step = (d / 2 - (d + 1) * x + x ** (d + 1)) / ((d + 1) * (1 - x**d))
        if x + step <= x:
            break
        x += step
    q = Fraction(x)
    q += (Fraction(d, 2) - (d + 1) * q + q ** (d + 1)) / ((d + 1) * (1 - q**d))
    return float(Fraction(h) * q)


def extremal_mixed_m1(h: float, d: int, grid: GridSpec) -> GridField:
    """Split-point antiderivative; equality case for m = 1.

    The first axis integrates from the split point a = split_point(h, d).
    sup|g| = h^(d+1)/(2(d+1)); the mixed derivative is the extremal density
    restricted to the cone.
    """
    return _shifted_field(h, d, grid, (split_point(h, d),))


# -- exploratory sharpness search (m >= 2) --------------------------------


@dataclass
class SharpnessResult:
    best_ratio: float
    best_shifts: np.ndarray
    trajectory: list = field(default_factory=list)  # (iteration, ratio)


def _shifted_sup(h: float, d: int, m: int, shifts: np.ndarray) -> float:
    """Sup of |g_s| over {0 <= x_i <= h} (first m axes) x {|x_i| <= h}, where
    g_s integrates the extremal density from shifted lower limits on the
    first m axes (_shifted_antiderivative).

    Exact at the 2^d corners: fix every coordinate of x but x_i.  Then
    dg_s/dx_i is a face integral of the nonnegative density (h - |u|_inf)_+,
    over a face that does not depend on x_i, and with a sign that does not
    depend on x_i.  So g_s is monotone in each coordinate, and by induction
    over faces its max and its min over the domain sit at corners.
    """
    corners = itertools.product(*[(0.0 if i < m else -h, h) for i in range(d)])
    vals = _shifted_antiderivative(np.array(list(corners)), h, shifts)
    return float(np.max(np.abs(vals)))


def sharpness_search(d: int, m: int, h: float = 1.0, budget: int = 40,
                     seed: int = 0) -> SharpnessResult:
    """Exploratory search for the best ratio LHS/RHS of the multiplicative
    mixed inequality over shifted-antiderivative candidates.

    Never claims sharpness: it reports the largest ratio observed.  The m=1
    instance is a control (the known optimum is the split point).

    The ratio does not depend on h: g_s at scale h is h^(d+1) times g_{s/h}
    at h = 1.  So the search runs at h = 1, where sup|g_s| neither underflows
    nor overflows, and returns h times the best shifts.  MixedParams checks
    (d, m, h), h through geometry._check_radius; the search needs m >= 1.
    """
    MixedParams(d=d, m=m, h=h)
    if m < 1:
        raise GeometryError("search applies to shifted constructions, m >= 1")
    rng = np.random.default_rng(seed)

    def ratio_of(shifts):
        sup_g = _shifted_sup(1.0, d, m, shifts)
        return 1.0 / _product(d, 2.0 ** -m, 1.0, sup_g, joint=True)

    best_s = np.full(m, 0.5)
    best_r = ratio_of(best_s)
    traj = [(0, best_r)]
    for it in range(1, budget + 1):
        if it % 2:
            cand = rng.uniform(0.05, 0.95, size=m)
        else:
            # coordinate descent from the incumbent
            cand = best_s.copy()
            for i in range(m):
                def neg(t, _i=i):
                    s = cand.copy()
                    s[_i] = t
                    return -ratio_of(s)

                t, _ = golden_min(neg, 0.02, 0.98, iters=25)
                cand[i] = t
        r = ratio_of(cand)
        if r > best_r:
            best_r, best_s = r, cand
        traj.append((it, best_r))
    return SharpnessResult(best_r, h * best_s, traj)
